package main

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
	"strconv"
	"time"

	"pinsql/internal/ingest"
)

// slowLogEpoch places a recording's trace millisecond 0 on the wall clock
// (2023-06-01T10:00:00Z, the examples/ingest fixture's epoch): a slow log
// carries absolute times and the parser rejects a zero timestamp.
const slowLogEpoch = 1685613600

// writeTraceFile writes the first `seconds` recorded seconds in the repo's
// canonical gzip trace codec.
func writeTraceFile(path string, rec *recording, seconds int64) error {
	return writeFile(path, func(w io.Writer) error {
		return ingest.WriteTrace(w, 0, seconds*1000, &replaySource{rec: rec, endSec: seconds})
	})
}

// writeSlowLogFile writes the same seconds as a gzip MySQL slow query log
// in the dialect of examples/ingest/gen: one entry per statement, in
// completion order, with a `# Time:` completion stamp, a Query_time header
// and a `SET timestamp=` start time. What a slow log cannot carry is lost
// on purpose — template IDs (the collector re-derives them by normalizing
// the SQL text) and sampled metrics (ingest.SessionSynth rebuilds the
// session series from statement overlap).
func writeSlowLogFile(path string, rec *recording, seconds int64) error {
	return writeFile(path, func(w io.Writer) error {
		zw, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(zw, 256<<10)
		bw.WriteString("/usr/sbin/mysqld, Version: 8.0.32 (MySQL Community Server - GPL). started with:\n")
		bw.WriteString("Tcp port: 3306  Unix socket: /var/run/mysqld/mysqld.sock\n")
		bw.WriteString("Time                 Id Command    Argument\n")

		src := &replaySource{rec: rec, endSec: seconds}
		var buf []byte
		for {
			b, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			for _, r := range b.Records {
				startMs := slowLogEpoch*1000 + r.ArrivalMs
				emit := time.UnixMilli(startMs + int64(r.ResponseMs)).UTC()
				buf = append(buf[:0], "# Time: "...)
				buf = emit.AppendFormat(buf, "2006-01-02T15:04:05.000000Z07:00")
				buf = append(buf, "\n# User@Host: shop[shop] @ app-01 [10.1.0.10]  Id:   100\n# Query_time: "...)
				buf = strconv.AppendFloat(buf, r.ResponseMs/1000, 'f', 6, 64)
				buf = append(buf, "  Lock_time: "...)
				buf = strconv.AppendFloat(buf, r.LockWaitMs/1000, 'f', 6, 64)
				buf = append(buf, " Rows_sent: 0  Rows_examined: "...)
				buf = strconv.AppendInt(buf, r.ExaminedRows, 10)
				buf = append(buf, "\nSET timestamp="...)
				buf = strconv.AppendFloat(buf, float64(startMs)/1000, 'f', 3, 64)
				buf = append(buf, ";\n"...)
				buf = append(buf, r.SQL...)
				buf = append(buf, ";\n"...)
				bw.Write(buf)
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return zw.Close()
	})
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
