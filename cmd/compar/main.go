// Command compar runs the S2S auto-parallelization baseline over a C file:
// it applies Par4All, AutoPar and Cetus, combines their results ComPar-style,
// and prints the annotated source (or the decline/failure reason).
//
// Usage:
//
//	compar file.c
//	compar -compiler cetus file.c
//	echo 'for (i = 0; i < n; i++) a[i] = b[i];' | compar -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pragformer/internal/s2s"
)

func main() {
	var (
		compiler = flag.String("compiler", "compar", "compiler: compar|cetus|autopar|par4all")
		verbose  = flag.Bool("v", false, "print analysis reasons")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: compar [-compiler name] [-v] <file.c | ->")
		os.Exit(2)
	}

	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compar:", err)
		os.Exit(1)
	}

	var c s2s.Compiler
	switch *compiler {
	case "compar":
		c = s2s.NewComPar()
	case "cetus":
		c = s2s.Cetus{}
	case "autopar":
		c = s2s.AutoPar{}
	case "par4all":
		c = s2s.Par4All{}
	default:
		fmt.Fprintf(os.Stderr, "compar: unknown compiler %q\n", *compiler)
		os.Exit(2)
	}

	res, err := c.Compile(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: compile failed: %v\n", c.Name(), err)
		os.Exit(1)
	}
	if res.Directive == nil {
		fmt.Printf("// %s: no directive inserted\n", c.Name())
	}
	fmt.Print(res.Source())
	if *verbose {
		for _, r := range res.Reasons {
			fmt.Fprintf(os.Stderr, "// reason: %s\n", r)
		}
	}
}
