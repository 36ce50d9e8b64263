module p2psplice/cmd/bench

go 1.22

require p2psplice v0.0.0

replace p2psplice => ../..
