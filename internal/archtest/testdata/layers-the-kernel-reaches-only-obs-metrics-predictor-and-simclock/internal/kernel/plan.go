package kernel

import "hotc/internal/obs"

var books obs.Registry
