package admission

import "hotc/internal/stack"

var _ stack.Options
