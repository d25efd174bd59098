package admission

var weighted = Config{MaxInFlight: 1, Weights: map[string]int{"gold": 2}}
