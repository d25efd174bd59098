package main

import "hotc/internal/meter"

func main() { meter.Set(1) }
