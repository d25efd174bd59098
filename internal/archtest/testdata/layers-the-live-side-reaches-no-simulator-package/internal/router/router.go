package router

import "hotc/internal/admission"

var _ admission.Controller
