package faas

func (r *request) annotate(kind, detail string) {
	r.g.obs.events[kind].Inc()
}
