package live

import "testing"

func TestCopyPooled(t *testing.T) {
	copyPooled(nil, nil)
}
