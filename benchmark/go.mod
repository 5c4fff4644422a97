module gimbal/benchmark

go 1.22

require gimbal v0.0.0

replace gimbal => ../
