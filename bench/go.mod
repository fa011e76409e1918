module hcompress/bench

go 1.24

require hcompress v0.0.0

replace hcompress => ../
