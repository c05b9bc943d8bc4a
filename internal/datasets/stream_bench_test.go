package datasets

import "testing"

// BenchmarkLoad and BenchmarkStreamTarget pair the batch generator with the
// chunked view over it: StreamTarget runs one Load and then walks the target
// column in 512-point views, so the two differ only by that walk.

func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Load("Wind", 0.05, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamTarget(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts, err := StreamTarget("Wind", 0.05, 1, 512)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := ts.Next(); !ok {
				break
			}
		}
	}
}
