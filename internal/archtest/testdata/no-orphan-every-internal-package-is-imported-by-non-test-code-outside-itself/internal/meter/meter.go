package meter

func Set(v int) int { return v }
