package core

func books(reg *Registry) {
	reg.Counter("hotc_ctl_ok_total", "fine")
	reg.CounterVec("requests-total", "not a hotc_ name", "outcome")
}
