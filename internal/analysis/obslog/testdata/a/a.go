// Package a is the obslog analysistest fixture.
package a

import (
	"fmt"
	"log"
	"log/slog"
	"os"
)

func Events(n int) {
	fmt.Println("compile failed")               // want `fmt.Println in service code`
	fmt.Printf("disk write failed %d times", n) // want `fmt.Printf in service code`
	fmt.Print("draining")                       // want `fmt.Print in service code`
	log.Printf("job %d finished", n)            // want `log.Printf in service code`
	log.Println("queue full")                   // want `log.Println in service code`
	log.Fatal("disk gone")                      // want `log.Fatal in service code`
	log.Panicf("bad state %d", n)               // want `log.Panicf in service code`
}

func Allowed(n int) error {
	slog.Info("job finished", "jobs", n)
	slog.Warn("disk tier failing writes", "fails", n)
	msg := fmt.Sprintf("job %d", n)          // building a value, not emitting a line
	fmt.Fprintf(os.Stderr, "usage: %s", msg) // explicit writer: CLI usage text, not a log
	return fmt.Errorf("compile failed: %s", msg)
}
