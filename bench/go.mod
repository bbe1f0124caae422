module bdps/bench

go 1.23

require bdps v0.0.0

replace bdps => ../
