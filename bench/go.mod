module epidemic/bench

go 1.22

require epidemic v0.0.0

replace epidemic => ../
