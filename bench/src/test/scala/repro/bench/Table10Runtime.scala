package repro.bench

import java.io.{ByteArrayOutputStream, ObjectOutputStream}
import java.lang.management.ManagementFactory
import repro.SparkSpec
import repro.benchgen.{BenchGen, Systems}

/** Table 10: per-table runtime cost on the Wikipedia benchmark, measured in
  * a single-threaded driver loop. Columns:
  *  - time: wall milliseconds per table;
  *  - disk: KB of the java-serialized detection/repair outcome (the paper
  *    reports model + intermediate files on disk; our simulators do not
  *    materialize model checkpoints, so this column is the persisted
  *    per-table artifact — relative order is the comparable signal);
  *  - memory: MB allocated per table (ThreadMXBean allocation — a stable
  *    proxy for the paper's peak-RSS measurement).
  * Paper's shape: DataVinci, WMRR and Raha are the cheapest (250–320 ms,
  * few MB); HoloClean and T5 are the most expensive systems we run.
  */
class Table10Runtime extends SparkSpec {

  private val systems = Vector("WMRR", "HoloClean", "Raha", "Potters-Wheel",
    "Auto-Detect", "T5", "GPT-3.5", "DataVinci")

  private def serializedKb(x: Any): Double = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(x); oos.close()
    bos.size() / 1024.0
  }

  test("Table 10: time / disk / allocation per Wikipedia table") {
    val nTables = sys.env.get("REPRO_RUNTIME_TABLES").map(_.toInt).getOrElse(40)
    val tables  = (0L until nTables.toLong).map(BenchGen.wikipedia)
    val tmx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val tid = Thread.currentThread().getId

    val rows = systems.map { name =>
      val sys0 = Systems.make(name)
      // warm-up on one table (JIT, lazy statics like the semantic KB)
      sys0.clean(tables.head.dirtyTable)

      var totalNs = 0L; var totalAlloc = 0L; var totalKb = 0.0
      for (t <- tables) {
        val dirty  = t.dirtyTable
        val labels = t.supervisionLabels
        val a0 = tmx.getThreadAllocatedBytes(tid)
        val t0 = System.nanoTime()
        val outcome = Systems.make(name).cleanWithLabels(dirty, labels)
        totalNs += System.nanoTime() - t0
        totalAlloc += tmx.getThreadAllocatedBytes(tid) - a0
        totalKb += serializedKb(outcome.map { case (c, o) => (c, (o.errors, o.repairs)) })
      }
      val ms      = totalNs / 1e6 / nTables
      val allocMb = totalAlloc / 1024.0 / 1024.0 / nTables
      val diskKb  = totalKb / nTables
      println(f"Table10  $name%-14s time=${ms}%8.1f ms  disk=${diskKb}%7.2f KB  alloc=${allocMb}%8.2f MB")
      (name, ms, diskKb, allocMb)
    }

    // Absolute and relative resource numbers reflect the *simulators*, not
    // the original implementations (our HoloClean-lite has no factor-graph
    // inference; our T5 is a bigram model, not a transformer) — see
    // EXPERIMENTS.md. The assertable invariant is sanity of the harness.
    rows.foreach { case (n, ms, kb, mb) =>
      assert(ms < 10000, s"$n too slow: $ms ms/table")
      assert(kb > 0 && mb > 0, s"$n: empty measurements")
    }
  }
}
