package obs

func sloBooks(reg *Registry) {
	reg.GaugeVec("hotc_slo_burn_rate", "", "slo")
	reg.GaugeVec("hotc_slo_bad_fraction", "", "slo")
	reg.GaugeVec("hotc_slo_breach", "", "slo")
	reg.GaugeVec("hotc_slo_budget", "", "slo")
}
