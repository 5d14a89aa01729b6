module lht/benchmark

go 1.22

require lht v0.0.0

replace lht => ../
