module hotc/benchmark

go 1.22

require hotc v0.0.0

replace hotc => ../
