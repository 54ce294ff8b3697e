module asv/benchmark

go 1.22

require asv v0.0.0

replace asv => ../
