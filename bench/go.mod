// The baseline benchmark is a module of its own so that it builds from its
// own build file and stays out of the repository's `go build ./...` and
// `go test ./...`; it measures the parent module's code through the replace
// below, so parent and change are measured by identical benchmark code.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
