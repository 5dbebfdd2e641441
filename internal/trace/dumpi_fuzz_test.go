package trace

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseDUMPI hardens the trace parser against arbitrary input: it must
// never panic or report events with malformed classification.
func FuzzParseDUMPI(f *testing.F) {
	f.Add(sampleDUMPI)
	f.Add("")
	f.Add("MPI_Isend entering at walltime 1.0, cputime 0 seconds in thread 0.\n")
	f.Add("int dest=5\nint tag=-1\n")
	f.Add("MPI_Irecv entering at walltime 1e9, cputime 0 seconds in thread 0.\nint source=MPI_ANY_SOURCE\n")
	f.Add(strings.Repeat("MPI_Wait entering at walltime 2.0, cputime 0 seconds in thread 0.\n", 10))

	f.Fuzz(func(t *testing.T, input string) {
		rt, err := ParseDUMPI(strings.NewReader(input), 0)
		if err != nil {
			return
		}
		for _, e := range rt.Events {
			if e.Name == "" {
				t.Fatal("event without a name")
			}
			if Classify(e.Name) != e.Kind {
				t.Fatalf("event %q classified %v, Classify says %v", e.Name, e.Kind, Classify(e.Name))
			}
		}
	})
}

// FuzzParseDUMPIMatchesRegexp checks the byte-level parser against the
// regular-expression parser it replaced: on any input both must return
// deeply equal events, or errors with identical text.
func FuzzParseDUMPIMatchesRegexp(f *testing.F) {
	f.Add(sampleDUMPI)
	f.Add(strings.ReplaceAll(sampleDUMPI, "\n", "\r\n"))
	f.Add("MPI_Irecv entering at walltime 1.0, cputime 0 seconds in thread 0.\n\tint source=2\n \t int tag=9\n")
	f.Add("MPI_Isend entering at walltime 1.0, cputime 0 seconds in thread 0.\nint dest=[]\nint tag=[12]\nint count=[-3x]\n")
	f.Add("MPI_Isend entering at walltime 1.0\nint dest=2147483648\nint tag=-2147483649\nint count=99999999999\ncomm comm=4294967296\n")
	f.Add("MPI_Recv entering at walltime 2.5\nint source=MPI_ANY_SOURCE\nint tag=MPI_ANY_TAG\nint source=[MPI_ANY_SOURCE]\n")
	f.Add("MPI_Send entering at walltime 1.2.3, cputime 0 seconds in thread 0.\n")
	f.Add("MPI_Frobnicate entering at walltime 3.0\nint dest=1\nMPI_Frobnicate entering at walltime 4.0\nMPI_X entering at walltime 5e-3\n")
	f.Add("MPI_Isend entering at walltime 1.0\nint dest=4 returning at walltime 2\nint tag=5\n")
	f.Add("MPI_ entering at walltime 1.0\nMPI_Isend entering at walltime +\nint dest=1\n")
	f.Add("MPI_Irecv entering at walltime 1\nint  source=1\nint source =2\nint source=\nint\tsource=3\nx source=.-.\n\f\rint tag=12]\n")

	f.Fuzz(func(t *testing.T, input string) {
		got, gotErr := ParseDUMPI(strings.NewReader(input), 3)
		want, wantErr := parseDUMPIRegexp(strings.NewReader(input), 3)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("errors differ: got %v, want %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("events differ:\ngot  %+v\nwant %+v", got, want)
		}
	})
}
