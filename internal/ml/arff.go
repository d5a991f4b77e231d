package ml

// ARFF import/export. The paper's authors trained their models in WEKA,
// whose native corpus format is ARFF; supporting it lets a user move the
// simulated corpus into real WEKA (or a real device's WEKA-collected log
// into this library) unchanged. Only the numeric subset of ARFF is
// implemented — every attribute in this problem is numeric.

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteARFF writes the dataset in ARFF format with the given relation name.
// The target is emitted as the final attribute, named "target".
func WriteARFF(w io.Writer, relation string, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if relation == "" {
		relation = "dataset"
	}
	fmt.Fprintf(bw, "@RELATION %s\n\n", sanitizeName(relation))
	for _, a := range d.AttrNames {
		fmt.Fprintf(bw, "@ATTRIBUTE %s NUMERIC\n", sanitizeName(a))
	}
	fmt.Fprintf(bw, "@ATTRIBUTE target NUMERIC\n\n@DATA\n")
	for i, x := range d.X {
		for _, v := range x {
			fmt.Fprintf(bw, "%g,", v)
		}
		fmt.Fprintf(bw, "%g\n", d.Y[i])
	}
	return bw.Flush()
}

func sanitizeName(s string) string {
	if strings.ContainsAny(s, " \t,") {
		return "'" + s + "'"
	}
	return s
}
