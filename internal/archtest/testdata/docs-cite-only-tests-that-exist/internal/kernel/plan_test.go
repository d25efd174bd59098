package kernel

import "testing"

func TestPlanClamps(t *testing.T) {}

func FuzzPlan(f *testing.F) {}
