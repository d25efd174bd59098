package live

func books(reg *Registry) {
	reg.Counter("hotc_pool_retired_total", "Instances retired.")
}
