module spq/benchmark

go 1.23

require spq v0.0.0

replace spq => ../
