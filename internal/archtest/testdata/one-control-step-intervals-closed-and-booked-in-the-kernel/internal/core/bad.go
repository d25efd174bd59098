package core

import k "hotc/internal/kernel"

func (h *HotC) tick(in k.PlanInput) {
	h.reg.Counter("hotc_ctl_ticks_total", "Intervals closed.").Inc()
	h.target, h.boot, h.retire = k.Plan(in)
}
