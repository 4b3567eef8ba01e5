// Package b declares the same names as package a, but no caller uses its
// Run or sets its Knob.
package b

// Config configures Run and Size.
type Config struct {
	Knob int // set only by withDefaults
}

func (c Config) withDefaults() Config {
	if c.Knob == 0 {
		c.Knob = 4
	}
	return c
}

// Run returns the knob; nothing calls it.
func Run(c Config) int { return c.withDefaults().Knob }

// Size returns twice the knob.
func Size(c Config) int { return 2 * c.withDefaults().Knob }
