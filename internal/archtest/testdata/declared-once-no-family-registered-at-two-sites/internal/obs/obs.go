package obs

// The registry's own sources are not read: its examples name families.
func example(r *Registry) { r.Counter("hotc_pool_retired_total", "") }
