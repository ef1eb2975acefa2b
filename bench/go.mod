module ipmedia/bench

go 1.22

require ipmedia v0.0.0

replace ipmedia => ../
