module kairos/bench

go 1.22

require kairos v0.0.0

replace kairos => ../
