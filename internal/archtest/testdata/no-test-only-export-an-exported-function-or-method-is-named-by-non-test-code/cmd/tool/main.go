package main

import "hotc/internal/meter"

func main() { meter.New().Set(1) }
