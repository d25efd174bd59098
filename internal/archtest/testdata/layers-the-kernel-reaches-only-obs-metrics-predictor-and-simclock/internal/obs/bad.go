package obs

import (
	"fmt"

	"hotc/internal/faas"
)

var _ = fmt.Sprint(faas.Gateway{})
