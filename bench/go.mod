module tpa/bench

go 1.22

require tpa v0.0.0

replace tpa => ../
