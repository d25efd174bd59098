package live

// hotc_share_boot_phase_ms is missing.
func books(reg *Registry) {
	reg.Counter("hotc_trace_kept_total", "")
	reg.Counter("hotc_trace_sampled_out_total", "")
	reg.Counter("hotc_trace_ring_dropped_total", "")
	reg.Counter("hotc_build_info", "")
	reg.Counter("hotc_uptime_seconds", "")
	reg.Counter("hotc_coldpath_boots_total", "")
	reg.Counter("hotc_coldpath_phase_ms", "")
	reg.Counter("hotc_coldpath_generic_idle", "")
	reg.Counter("hotc_coldpath_refills_total", "")
	reg.Counter("hotc_coldpath_generic_reaped_total", "")
	reg.Counter("hotc_coldpath_pull_skipped_mb_total", "")
	reg.Counter("hotc_share_leases_total", "")
	reg.Counter("hotc_share_lenders", "")
	reg.Counter("hotc_share_renters", "")
}
