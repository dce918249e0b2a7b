module rtopex/bench

go 1.22

require rtopex v0.0.0

replace rtopex => ../
