// Command x calls a.Run and b.Size, and sets only a.Config.Knob.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

func main() {
	fmt.Println(a.Run(a.Config{Knob: 3}), b.Size(b.Config{}))
}
