// Command tscompress compresses a univariate time series CSV with one of
// the paper's methods and reports the compression ratio, transformation
// error, and segment count. With -roundtrip it writes the decompressed
// series back out so the loss can be inspected.
//
// Input format: one value per line, or "timestamp,value" lines (the
// timestamps must be regular). Example:
//
//	tscompress -method PMC -eps 0.05 -in data.csv
//	tscompress -method SZ -eps 0.1 -in data.csv -roundtrip out.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lossyts/internal/cli"
	"lossyts/internal/compress"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

func main() {
	var (
		method    = flag.String("method", "PMC", "compression method: "+cli.MethodList(compress.Registered()))
		eps       = flag.Float64("eps", 0.05, "pointwise relative error bound")
		in        = flag.String("in", "", "input CSV (one value per line, or timestamp,value)")
		roundtrip = flag.String("roundtrip", "", "write the decompressed series to this file")
		interval  = flag.Int64("interval", 60, "sampling interval in seconds (when input has no timestamps)")
		common    = cli.BindProfiling(flag.CommandLine)
	)
	flag.Parse()
	stopProfiles, err := common.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tscompress:", err)
		os.Exit(1)
	}
	runErr := run(*method, *eps, *in, *roundtrip, *interval)
	// Profiles are flushed before any exit path: os.Exit skips defers.
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "tscompress:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tscompress:", runErr)
		os.Exit(1)
	}
}

func run(method string, eps float64, in, roundtrip string, interval int64) error {
	if in == "" {
		return fmt.Errorf("missing -in file")
	}
	s, err := readSeries(in, interval)
	if err != nil {
		return err
	}
	comp, err := compress.New(compress.Method(method))
	if err != nil {
		return err
	}
	c, err := comp.Compress(s, eps)
	if err != nil {
		return err
	}
	dec, err := c.Decompress()
	if err != nil {
		return err
	}
	cr, err := compress.Ratio(s, c)
	if err != nil {
		return err
	}
	te, err := stats.Evaluate(s.Values, dec.Values)
	if err != nil {
		return err
	}
	maxRel, err := s.MaxRelError(dec)
	if err != nil {
		return err
	}
	fmt.Printf("method       %s\n", c.Method)
	fmt.Printf("error bound  %g\n", eps)
	fmt.Printf("points       %d\n", c.N)
	fmt.Printf("segments     %d\n", c.Segments)
	fmt.Printf("size         %d bytes (.gz)\n", c.Size())
	fmt.Printf("ratio        %.2fx\n", cr)
	fmt.Printf("TE (NRMSE)   %.6f\n", te.NRMSE)
	fmt.Printf("TE (RMSE)    %.6f\n", te.RMSE)
	fmt.Printf("max rel err  %.6f\n", maxRel)
	if roundtrip != "" {
		if err := writeSeries(roundtrip, dec); err != nil {
			return err
		}
		fmt.Printf("decompressed series written to %s\n", roundtrip)
	}
	return nil
}

func readSeries(path string, interval int64) (*timeseries.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var values []float64
	var firstTS int64
	var prevTS int64
	hasTS := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		var vStr string
		switch len(parts) {
		case 1:
			vStr = parts[0]
		case 2:
			ts, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad timestamp %q", line, parts[0])
			}
			if len(values) == 0 {
				firstTS = ts
			} else if len(values) == 1 {
				interval = ts - prevTS
			} else if ts-prevTS != interval {
				return nil, fmt.Errorf("line %d: irregular interval (%d != %d)", line, ts-prevTS, interval)
			}
			prevTS = ts
			hasTS = true
			vStr = parts[1]
		default:
			return nil, fmt.Errorf("line %d: want 'value' or 'timestamp,value'", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(vStr), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", line, vStr)
		}
		values = append(values, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("%s: no values", path)
	}
	if !hasTS {
		firstTS = 0
	}
	return timeseries.New(path, firstTS, interval, values), nil
}

func writeSeries(path string, s *timeseries.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i, v := range s.Values {
		fmt.Fprintf(w, "%d,%g\n", s.TimeAt(i), v)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return nil
}
