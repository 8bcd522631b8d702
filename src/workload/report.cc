#include "src/workload/report.h"

#include <cstdio>

#include "src/common/dassert.h"
#include "src/common/histogram.h"
#include "src/workload/driver.h"

namespace doppel {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  DOPPEL_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t wcol : widths) {
    total += wcol + 2;
  }
  for (std::size_t i = 0; i < total; ++i) {
    std::printf("-");
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void Table::PrintCsv() const {
  auto print_row = [](const std::vector<std::string>& cells) {
    std::printf("csv");
    for (const auto& cell : cells) {
      std::printf(",%s", cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string FormatCount(double v) {
  char buf[64];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatMicros(double nanos) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", nanos / 1000.0);
  return buf;
}

std::string FormatBytes(double v) {
  char buf[64];
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", v / (1024.0 * 1024.0 * 1024.0));
  } else if (v >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", v / (1024.0 * 1024.0));
  } else if (v >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", v / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", v);
  }
  return buf;
}

std::string WalSummary(const RunMetrics& m) {
  if (!m.wal_enabled) {
    return "";
  }
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf),
      "wal: %s txns logged, %llu flushes, %s, %llu segments, %llu checkpoints, "
      "%llu cuts",
      FormatCount(static_cast<double>(m.wal_appended_txns)).c_str(),
      static_cast<unsigned long long>(m.wal_flushed_batches),
      FormatBytes(static_cast<double>(m.wal_flushed_bytes)).c_str(),
      static_cast<unsigned long long>(m.wal_segments),
      static_cast<unsigned long long>(m.wal_checkpoints),
      static_cast<unsigned long long>(m.wal_cuts));
  if (m.wal_checkpoints > 0 && n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    // Where checkpoint time went: the barrier (capture) vs the background (persist).
    n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                       " (capture %.1fms, persist %.1fms in total; last image %s)",
                       static_cast<double>(m.wal_checkpoint_capture_ns) / 1e6,
                       static_cast<double>(m.wal_checkpoint_persist_ns) / 1e6,
                       FormatBytes(static_cast<double>(m.wal_checkpoint_image_bytes))
                           .c_str());
  }
  // One-line durability health: healthy runs show retry absorption (usually 0), a
  // degraded run names the syscall and errno that tripped the read-only latch.
  if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    if (m.wal_degraded) {
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                         ", health DEGRADED read-only (%s failed, errno %d)",
                         m.wal_failed_op, m.wal_failed_errno);
    } else {
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                         ", health ok (%llu io retries, %llu ckpt retries)",
                         static_cast<unsigned long long>(m.wal_io_retries),
                         static_cast<unsigned long long>(m.wal_checkpoint_failures));
    }
  }
  if (m.replica_enabled && n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    std::snprintf(
        buf + n, sizeof(buf) - static_cast<std::size_t>(n),
        "\nreplica: cut tid %llu, %llu cuts published, %s txns applied, %s shipped, "
        "lag %s/%llu entries, publish p99 %lluus",
        static_cast<unsigned long long>(m.replica_cut_tid),
        static_cast<unsigned long long>(m.replica_cuts),
        FormatCount(static_cast<double>(m.replica_applied_txns)).c_str(),
        FormatBytes(static_cast<double>(m.replica_shipped_bytes)).c_str(),
        FormatBytes(static_cast<double>(m.replica_lag_bytes)).c_str(),
        static_cast<unsigned long long>(m.replica_lag_entries),
        static_cast<unsigned long long>(m.replica_publish_lag_p99_us));
  }
  return buf;
}

std::vector<std::string> LatencyPercentileHeaders() {
  return {"mean_us", "p50_us", "p90_us", "p99_us", "max_us"};
}

std::vector<std::string> LatencyPercentileCells(const LatencyHistogram& h) {
  // Every sample must carry a real submission timestamp: Database::Submit and the worker
  // loop both stamp submit_ns before execution, so a zero minimum means some path lost
  // the stamp and its queueing delay.
  DOPPEL_CHECK(h.count() == 0 || h.min() > 0);
  return {FormatMicros(h.Mean()), FormatMicros(static_cast<double>(h.Percentile(50))),
          FormatMicros(static_cast<double>(h.Percentile(90))),
          FormatMicros(static_cast<double>(h.Percentile(99))),
          FormatMicros(static_cast<double>(h.max()))};
}

}  // namespace doppel
