// ooGSrGemm — out-of-device semiring matrix multiplication (paper §4.3–4.4).
//
// Computes C ← C ⊕ A ⊗ B where C (m x n) lives on the HOST and is too big
// for device memory; A (m x k) and B (k x n) are thin panels (m, n ≫ k).
//
// Decomposition: A into row panels A_i (m_x x k), B into column panels
// B_j (k x n_x). For each output chunk C_ij, a stream r = next in
// round-robin runs:
//     SrGemm:    X_r ← A_i ⊗ B_j           (device kernel)
//     d2hXfer:   staging_r ← X_r           (device→host copy)
// and the host, consuming streams in initiation order, applies
//     hostUpdate: C_ij ← C_ij ⊕ staging_r  (CPU, DRAM-bandwidth bound)
// With s ≥ 3 streams all three phases overlap (paper Figure 2; cost
// max{t0,t1,t2} per §4.5).
//
// A_i / B_j are uploaded to the device once, on first use, and reused for
// every block in their row/column (§4.4's panel-caching pipeline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "devsim/device.hpp"
#include "sched/trace.hpp"
#include "semiring/semiring.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/metrics.hpp"
#include "util/matrix.hpp"

namespace parfw::offload {

struct OogConfig {
  std::size_t mx = 2048;       ///< device buffer rows
  std::size_t nx = 2048;       ///< device buffer cols
  std::size_t num_streams = 3; ///< s; 1 = fully serial, 3 = full overlap
  /// When set, each retired chunk's hostUpdate is recorded ("oogHost",
  /// bytes = chunk size) on the sched::now_seconds() timeline, plus the
  /// device-pipeline handoff pair: "oogDev" (kSend instant at chunk
  /// launch) joined to "oogWait" (kRecv span over the completion wait)
  /// through a per-rank device channel, so causal analysis sees the
  /// stream ordering.
  sched::TraceSink* trace = nullptr;
  int rank = 0;  ///< rank attributed to the trace events (devsim is local)
  /// When set, the pipeline lands series into this registry:
  /// oog.inflight_depth / oog.inflight_max gauges (X-buffer occupancy —
  /// depth s means full compute/transfer/hostUpdate overlap),
  /// oog.host_update_seconds histogram, and oog.bytes_h2d / oog.bytes_d2h
  /// transfer counters.
  telemetry::Registry* metrics = nullptr;
};

/// Statistics of one ooGSrGemm invocation (validated by tests against the
/// §4.5 cost model's data-volume terms).
struct OogStats {
  std::size_t blocks = 0;
  std::size_t elems_h2d = 0;  ///< panel uploads: (m + n) * k
  std::size_t elems_d2h = 0;  ///< result downloads: m * n (padded chunks)
};

template <typename S>
OogStats oog_srgemm(dev::Device& device,
                    MatrixView<const typename S::value_type> A,
                    MatrixView<const typename S::value_type> B,
                    MatrixView<typename S::value_type> C,
                    const OogConfig& cfg = {}) {
  using T = typename S::value_type;
  PARFW_CHECK(A.rows() == C.rows() && B.cols() == C.cols() &&
              A.cols() == B.rows());
  PARFW_CHECK(cfg.mx > 0 && cfg.nx > 0 && cfg.num_streams > 0);
  OogStats stats;
  if (C.empty() || A.cols() == 0) return stats;

  const std::size_t m = C.rows(), n = C.cols(), k = A.cols();
  const std::size_t mb = (m + cfg.mx - 1) / cfg.mx;
  const std::size_t nb = (n + cfg.nx - 1) / cfg.nx;
  const std::size_t s = cfg.num_streams;

  // Device-resident panel caches (uploaded on first use) and X buffers.
  dev::DeviceBuffer<T> dA = device.alloc<T>(m * k);
  dev::DeviceBuffer<T> dB = device.alloc<T>(k * n);
  std::vector<dev::DeviceBuffer<T>> X;
  std::vector<AlignedBuffer<T>> staging;  // host-side d2h landing zones
  X.reserve(s);
  staging.reserve(s);
  for (std::size_t r = 0; r < s; ++r) {
    X.push_back(device.alloc<T>(cfg.mx * cfg.nx));
    staging.emplace_back(cfg.mx * cfg.nx);
  }

  std::vector<dev::Device::StreamPtr> streams;
  streams.reserve(s);
  for (std::size_t r = 0; r < s; ++r) streams.push_back(device.create_stream());

  // Upload events: consumers of a cached panel wait on its upload fence.
  std::vector<dev::Event> a_ready(mb), b_ready(nb);
  std::vector<bool> a_up(mb, false), b_up(nb, false);

  auto upload_a = [&](std::size_t i, dev::Stream& st) {
    const std::size_t r0 = i * cfg.mx;
    const std::size_t nr = std::min(cfg.mx, m - r0);
    // Row panels of A are contiguous only when A.ld() == k; copy row-wise.
    for (std::size_t row = 0; row < nr; ++row)
      device.memcpy_h2d(st, dA.data() + (r0 + row) * k,
                        A.data() + (r0 + row) * A.ld(), k * sizeof(T));
    stats.elems_h2d += nr * k;
    if (cfg.metrics)
      cfg.metrics->counter("oog.bytes_h2d").add(nr * k * sizeof(T));
    a_ready[i] = st.record();
    a_up[i] = true;
  };
  auto upload_b = [&](std::size_t j, dev::Stream& st) {
    const std::size_t c0 = j * cfg.nx;
    const std::size_t nc = std::min(cfg.nx, n - c0);
    // dB stored column-chunked: panel j occupies rows [0,k) x [c0, c0+nc)
    // of a k x n row-major device image.
    for (std::size_t row = 0; row < k; ++row)
      device.memcpy_h2d(st, dB.data() + row * n + c0,
                        B.data() + row * B.ld() + c0, nc * sizeof(T));
    stats.elems_h2d += k * nc;
    if (cfg.metrics)
      cfg.metrics->counter("oog.bytes_h2d").add(k * nc * sizeof(T));
    b_ready[j] = st.record();
    b_up[j] = true;
  };

  struct Pending {
    dev::Event done;
    std::size_t i, j, r;
    std::uint64_t seq;
  };
  std::deque<Pending> inflight;
  // Device-pipeline causality: chunk launch ("oogDev", kSend) joins the
  // host's completion wait ("oogWait", kRecv) through a per-rank device
  // channel — the offload analogue of a message edge.
  std::uint64_t chunk_seq = 0;
  const std::uint64_t dev_ctx =
      sched::kDeviceChannelCtx + static_cast<std::uint64_t>(cfg.rank);

  auto host_update = [&](const Pending& p) {
    const std::size_t r0 = p.i * cfg.mx, c0 = p.j * cfg.nx;
    const std::size_t nr = std::min(cfg.mx, m - r0);
    const std::size_t nc = std::min(cfg.nx, n - c0);
    const bool timed = cfg.trace != nullptr || cfg.metrics != nullptr;
    const double t0 = timed ? sched::now_seconds() : 0.0;
    MatrixView<const T> xv(staging[p.r].data(), nr, nc, cfg.nx);
    srgemm::ewise_add<S>(xv, C.sub(r0, c0, nr, nc));
    if (timed) {
      const double t1 = sched::now_seconds();
      if (cfg.trace)
        cfg.trace->record(sched::TraceEvent{
            cfg.rank, "oogHost", 0, t0, t1,
            static_cast<std::int64_t>(nr * nc * sizeof(T)), 0.0});
      if (cfg.metrics)
        cfg.metrics->histogram("oog.host_update_seconds").observe(t1 - t0);
    }
  };
  auto retire = [&](const Pending& p) {
    const double t0 = cfg.trace ? sched::now_seconds() : 0.0;
    p.done.wait();
    if (cfg.trace) {
      sched::TraceEvent e{cfg.rank, "oogWait", 0, t0,
                          sched::now_seconds(), 0, 0.0};
      e.ek = sched::EventKind::kRecv;
      e.peer = cfg.rank;
      e.ctx = dev_ctx;
      e.seq = p.seq;
      cfg.trace->record(e);
    }
    host_update(p);
  };

  std::size_t next_stream = 0;
  for (std::size_t i = 0; i < mb; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      const std::size_t r = next_stream;
      next_stream = (next_stream + 1) % s;
      dev::Stream& st = *streams[r];

      // Retire the oldest block on this buffer before reusing it.
      if (inflight.size() >= s) {
        const Pending p = inflight.front();
        inflight.pop_front();
        retire(p);
      }

      if (!a_up[i]) upload_a(i, st);
      if (!b_up[j]) upload_b(j, st);
      const dev::Event a_ev = a_ready[i];
      const dev::Event b_ev = b_ready[j];

      const std::size_t r0 = i * cfg.mx, c0 = j * cfg.nx;
      const std::size_t nr = std::min(cfg.mx, m - r0);
      const std::size_t nc = std::min(cfg.nx, n - c0);

      T* xr = X[r].data();
      const T* a_panel = dA.data() + r0 * k;
      const T* b_panel = dB.data() + c0;
      const std::size_t ldx = cfg.nx;
      device.launch(st, [=] {
        a_ev.wait();  // cross-stream dependency on the cached uploads
        b_ev.wait();
        MatrixView<T> xv(xr, nr, nc, ldx);
        xv.fill(S::zero());
        // The cached device panels are dense and reused across every block
        // in their row/column — the prepacked fast path (§4.4).
        srgemm::multiply_prepacked<S>(MatrixView<const T>(a_panel, nr, k, k),
                                      MatrixView<const T>(b_panel, k, nc, n),
                                      xv);
      });
      // d2hXfer of the nr x nc chunk (row-wise to keep staging layout).
      device.memcpy_d2h(st, staging[r].data(), xr,
                        ((nr - 1) * ldx + nc) * sizeof(T));
      stats.elems_d2h += nr * nc;

      inflight.push_back(Pending{st.record(), i, j, r, chunk_seq});
      if (cfg.trace) {
        const double t = sched::now_seconds();
        sched::TraceEvent e{cfg.rank, "oogDev", 0, t, t,
                            static_cast<std::int64_t>(nr * nc * sizeof(T)),
                            0.0};
        e.ek = sched::EventKind::kSend;
        e.peer = cfg.rank;
        e.ctx = dev_ctx;
        e.seq = chunk_seq;
        cfg.trace->record(e);
      }
      ++chunk_seq;
      if (cfg.metrics) {
        cfg.metrics->counter("oog.bytes_d2h")
            .add(((nr - 1) * ldx + nc) * sizeof(T));
        const double depth = static_cast<double>(inflight.size());
        cfg.metrics->gauge("oog.inflight_depth").set(depth);
        cfg.metrics->gauge("oog.inflight_max").update_max(depth);
      }
      ++stats.blocks;
    }
  }

  while (!inflight.empty()) {
    const Pending p = inflight.front();
    inflight.pop_front();
    retire(p);
  }
  stats.blocks = mb * nb;
  return stats;
}

}  // namespace parfw::offload
