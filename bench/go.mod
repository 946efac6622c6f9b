module janusaqp/bench

go 1.24

require janusaqp v0.0.0

replace janusaqp => ../
