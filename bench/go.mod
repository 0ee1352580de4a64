module pragformer/bench

go 1.24

require pragformer v0.0.0

replace pragformer => ../
