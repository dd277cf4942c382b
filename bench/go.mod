module jitgc/bench

go 1.24

require jitgc v0.0.0

replace jitgc => ../
