module a2sgd/benchmark

go 1.24

require a2sgd v0.0.0

replace a2sgd => ../
