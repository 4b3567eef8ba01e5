// Package a declares the function and config field that the fixture's
// caller uses and sets.
package a

// Config configures Run.
type Config struct {
	Knob int // set by the caller
}

// Run returns the knob.
func Run(c Config) int { return c.Knob }
