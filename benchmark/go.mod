// The benchmark is a module of its own so that it builds with its own build
// file; it reaches the engine's internal packages because its import path
// sits under the parent module's.
module github.com/gdi-go/gdi/benchmark

go 1.24

require github.com/gdi-go/gdi v0.0.0

replace github.com/gdi-go/gdi => ../
