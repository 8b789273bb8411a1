// Command fingerprint generates the benchmark dataset afresh and prints
// the fingerprint line perfbench/README.md must record for it.
//
//	fingerprint -datagen .bench_build/bin/datagen -dir .bench_build
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rdfshapes/perfbench/internal/nt"
	"rdfshapes/perfbench/internal/work"
)

func main() {
	datagen := flag.String("datagen", "", "path of the cmd/datagen binary")
	dir := flag.String("dir", ".", "directory for the temporary dataset file")
	flag.Parse()
	if err := run(*datagen, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "fingerprint:", err)
		os.Exit(1)
	}
}

func run(datagen, dir string) error {
	tmp, err := os.MkdirTemp(dir, "fingerprint-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	path := filepath.Join(tmp, "data.nt")
	if err := work.Generate(datagen, path); err != nil {
		return err
	}
	f, err := nt.Read(path)
	if err != nil {
		return err
	}
	fmt.Println(work.FingerprintLine(f))
	return nil
}
