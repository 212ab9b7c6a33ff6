module gossip/bench

go 1.24

require gossip v0.0.0

replace gossip => ../
