package gateway

import "testing"

func TestBooks(t *testing.T) { t.Log("hotc_requests_total") }
