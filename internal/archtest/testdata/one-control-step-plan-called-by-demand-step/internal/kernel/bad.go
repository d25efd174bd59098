package kernel

// Preview plans without booking: a second close.
func Preview(in PlanInput) int {
	target, _, _ := Plan(in)
	return target
}
