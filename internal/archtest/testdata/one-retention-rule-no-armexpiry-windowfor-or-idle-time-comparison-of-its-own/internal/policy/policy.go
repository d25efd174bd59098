package policy

func (h *Histogram) windowFor(key string) time.Duration { return h.MaxWindow }
