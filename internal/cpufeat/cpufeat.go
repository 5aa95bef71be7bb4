// Package cpufeat tells the hand-written kernels which vector instructions
// the CPU runs and the operating system saves the registers of. Each kernel
// reads the one feature whose instructions it executes, and its package
// keeps a Go path for when that feature is false.
package cpufeat
