package pool

func books(reg *Registry) {
	reg.CounterVec("hotc_pool_retired_total", "Instances retired.", "reason")
}
