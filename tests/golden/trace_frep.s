    .data
v: .double 1.5, 2.0
    .text
    la a0, v
    li t0, 2
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    frep.o t0, 2
    fadd.d ft0, ft0, ft1
    fmul.d ft0, ft0, ft1
    fsd ft0, 16(a0)
    ecall
