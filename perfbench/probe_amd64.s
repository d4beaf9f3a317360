#include "textflag.h"

// func probeScan(tags *[64]uint64, steps int) (hits uint64)
//
// The probe kernel of probe.go, probeScanGo, in assembly so that its
// code, and the 64-byte alignment of its loop, stay the same whatever
// else changes in the binary: the Go version's time moves by a third
// with where the linker happens to place it.
TEXT ·probeScan(SB), NOSPLIT, $0-24
	MOVQ  tags+0(FP), R10
	MOVQ  steps+8(FP), SI
	MOVQ  $0x9e3779b97f4a7c15, AX // x
	MOVQ  $6364136223846793005, BX
	MOVQ  $1442695040888963407, CX
	XORQ  DI, DI                  // hits
	XORQ  R8, R8                  // victim
	TESTQ SI, SI
	JLE   done
	PCALIGN $64

step:
	IMULQ BX, AX
	ADDQ  CX, AX
	MOVQ  AX, DX
	SHRQ  $57, DX                 // tag
	XORQ  R9, R9                  // j

scan:
	CMPQ DX, (R10)(R9*8)
	JEQ  hit
	INCQ R9
	CMPQ R9, $64
	JLT  scan
	MOVQ DX, (R10)(R8*8)
	INCQ R8
	ANDQ $63, R8
	DECQ SI
	JNZ  step
	JMP  done

hit:
	INCQ DI
	DECQ SI
	JNZ  step

done:
	MOVQ DI, hits+16(FP)
	RET
