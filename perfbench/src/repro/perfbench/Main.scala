package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * One closed-loop client on the driver thread calls the workload's entry
  * point back to back, pass after pass over the seeded inputs, until at
  * least two passes are done and about `--seconds` have elapsed. The first pass
  * warms up the JIT and is left out of the timing metrics. After each call
  * the [[Calibration]] kernel runs, and the timing metrics (`setup_s` too)
  * are scaled to its reference speed. Output checks run outside the timed
  * region. The last line of standard output is the JSON
  * result; the lines before it print every metric by name and unit.
  *
  * With `--trace 1` the run times untraced passes for half the time (at
  * least two), then makes one traced pass in which every call is replayed
  * layer by layer (see [[Replay]]), and reports the per-layer metrics.
  */
object Main {
  private val tmx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Calls slower than this count as failed. */
  private val CallLimitMs = 60000.0
  /** Set-up repetitions whose median is `setup_s`. */
  private val SetupReps = 5

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  private def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workload.byName(need("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${need("workload")}; one of ${Workload.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case x   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $x")
    }
    val seconds = need("seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Args(w, need("seed").toLong, seconds, trace)
  }

  private def allocated(all: Boolean): Long =
    if (all) tmx.getThreadAllocatedBytes(tmx.getAllThreadIds).filter(_ > 0).sum
    else tmx.getThreadAllocatedBytes(Thread.currentThread().getId)

  private def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Detection and repair counts over one pass, against the ground truth. */
  final case class Score(tp: Long = 0, fp: Long = 0, fn: Long = 0, exact: Long = 0, injected: Long = 0,
                         failingBefore: Long = 0, failingAfter: Long = 0) {
    def add(c: Case, o: Output): Score = {
      val errs = c.truth.keySet
      Score(tp + (o.flagged & errs).size, fp + (o.flagged -- errs).size, fn + (errs -- o.flagged).size,
        exact + c.truth.count { case (cell, clean) => o.repairs.get(cell).contains(clean) },
        injected + errs.size, failingBefore + o.failingBefore, failingAfter + o.failingAfter)
    }
    def f1Pct: Double = if (tp == 0) 0.0 else 200.0 * tp / (2 * tp + fp + fn)
    def repairPct: Double = if (injected == 0) 0.0 else 100.0 * exact / injected
  }

  /** One timed call: its wall time, the calibration kernel's time right
    * after it, and its time scaled to the reference speed ([[Calibration]]).
    */
  final case class Sample(caseIdx: Int, pass: Int, rawMs: Double, kernelMs: Double, ms: Double = 0.0)

  /** One pass; `wallNs` and `cpuNs` leave out the calibration kernel. */
  final case class Pass(cells: Long, ns: Long, allocBytes: Long, wallNs: Long, cpuNs: Long, gcMs: Long)

  def main(argv: Array[String]): Unit = {
    val mainEntry = System.currentTimeMillis()
    val a = try parse(argv) catch {
      case e: IllegalArgumentException =>
        System.err.println(s"perfbench: ${e.getMessage}"); sys.exit(2)
    }
    val w = a.workload
    val status =
      try run(a, mainEntry)
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
      finally w.close()
    sys.exit(status)
  }

  private def run(a: Args, mainEntry: Long): Int = {
    val w = a.workload
    val out = System.out

    // ---- set-up: JVM boot, one-time init, then repeated generation + warm-up
    val jvmBootS = (mainEntry - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
    val t0 = System.nanoTime()
    w.open()
    repro.semantics.SemanticKB.index.size // the knowledge base loads once per JVM
    val onceS = (System.nanoTime() - t0) / 1e9
    var cases = Vector.empty[Case]
    val repS = (1 to SetupReps).map { _ =>
      val r0 = System.nanoTime()
      cases = if (a.trace) w.tracedCases(a.seed) else w.cases(a.seed, warmup = false)
      w.cases(a.seed, warmup = true).foreach(w.call)
      (System.nanoTime() - r0) / 1e9
    }
    val setupS = jvmBootS + onceS + Stats.median(repS)
    out.println(f"setup: jvm ${jvmBootS}%.3f s + once ${onceS}%.3f s + median of ${repS.map(x => f"$x%.3f").mkString("/")} s")
    out.println(s"inputs: ${cases.size} calls per pass, ${cases.map(_.cells.toLong).sum} cells, " +
      s"${cases.map(_.truth.size).sum} injected errors")

    Calibration.warmUp() // outside set-up: the kernel is the benchmark's, not the program's
    // ---- timed passes, untraced
    val digests = new Array[String](cases.size)
    val samples = ArrayBuffer.empty[Sample]
    val passes = ArrayBuffer.empty[Pass]
    val problems = ArrayBuffer.empty[String]
    var attempted = 0L
    var failed = 0L
    var score = Score()
    val budgetNs = (if (a.trace) a.seconds / 2 else a.seconds) * 1e9
    // the first pass warms the JIT; timing metrics use the passes after it
    val minPasses = 2
    val loop0 = System.nanoTime()
    val firstOuts = Array.fill[Option[Output]](cases.size)(None)
    val firstFailed = scala.collection.mutable.Set.empty[Int]
    // stop at the pass boundary nearest the budget
    while (passes.size < minPasses || System.nanoTime() - loop0 + passes.last.wallNs / 2 < budgetNs) {
      val first = passes.isEmpty
      var cells, ns, alloc, kernelWall, kernelCpu = 0L
      val wall0 = System.nanoTime(); val cpu0 = tmx.getCurrentThreadCpuTime; val gc0 = gcMillis
      for ((c, i) <- cases.zipWithIndex) {
        attempted += 1
        val al0 = allocated(w.allThreads)
        val c0 = System.nanoTime()
        val res = try Right(w.call(c)) catch { case NonFatal(e) => Left(e) }
        val dt = System.nanoTime() - c0
        alloc += allocated(w.allThreads) - al0
        ns += dt; cells += c.cells
        val k0 = System.nanoTime(); val kc0 = tmx.getCurrentThreadCpuTime
        samples += Sample(i, passes.size, dt / 1e6, Calibration.timeMs())
        kernelWall += System.nanoTime() - k0; kernelCpu += tmx.getCurrentThreadCpuTime - kc0
        val errs = res match {
          case Left(e) => Vector(s"${c.label}: threw $e")
          case Right(o) =>
            val d = o.digest
            if (first) { digests(i) = d; score = score.add(c, o); firstOuts(i) = Some(o) }
            Workload.commonChecks(c, o) ++
              Option.when(d != digests(i))(s"${c.label}: result differs from the first pass").toVector ++
              Option.when(dt / 1e6 > CallLimitMs)(f"${c.label}: call took ${dt / 1e6}%.0f ms").toVector
        }
        if (errs.nonEmpty) { failed += 1; problems ++= errs; if (first) firstFailed += i }
      }
      passes += Pass(cells, ns, alloc, System.nanoTime() - wall0 - kernelWall,
        tmx.getCurrentThreadCpuTime - cpu0 - kernelCpu, gcMillis - gc0)
      if (first) for ((i, errs) <- w.checkPass(cases, firstOuts.toVector)) {
        if (!firstFailed(i)) failed += 1
        problems ++= errs
      }
    }
    problems.take(20).foreach(p => System.err.println(s"check failed: $p"))
    out.println("cells/s per pass: " + passes.map(p => f"${p.cells / (p.ns / 1e9)}%.0f").mkString(" ") +
      "; wall s per pass: " + passes.map(p => f"${p.wallNs / 1e9}%.1f").mkString(" ") +
      f"; loop ${(System.nanoTime() - loop0) / 1e9}%.1f s")

    val factors = Calibration.factors(samples.map(_.kernelMs).toVector)
    val scaled = samples.toVector.zip(factors).map { case (s, f) => s.copy(ms = s.rawMs * f) }
    writeLines(s"calls-${a.workload.name}-${a.seed}.tsv",
      "pass\tcase\tlabel\tcells\traw_ms\tkernel_ms\tms" +: scaled.map(s =>
        s"${s.pass}\t${s.caseIdx}\t${cases(s.caseIdx).label}\t${cases(s.caseIdx).cells}\t${s.rawMs}\t${s.kernelMs}\t${s.ms}"))
    val timed = scaled.filter(_.pass > 0)
    // the machine's speed over the timed passes, relative to the reference
    val speed = Stats.median(samples.indices.filter(samples(_).pass > 0).map(factors))
    // each input's median time over the timed passes: one slow pass moves no input
    val inputMs = timed.groupBy(_.caseIdx).toVector.sortBy(_._1).map { case (_, ss) => Stats.median(ss.map(_.ms)) }
    val cellsPerS = cases.map(_.cells.toDouble).sum / (inputMs.sum / 1000)
    val rawInputMs = timed.groupBy(_.caseIdx).toVector.sortBy(_._1).map { case (_, ss) => Stats.median(ss.map(_.rawMs)) }
    val allocMbPerKcell = Stats.median(passes.tail.map(p => p.allocBytes / 1048576.0 / (p.cells / 1000.0)).toVector)
    val p90Beyond = (inputMs.size * 0.1).floor.toInt
    val e2e = Vector(
      ("setup_s", setupS * speed, "s"),
      ("cells_per_s", cellsPerS, "cells/s"),
      ("call_ms_p50", Stats.median(inputMs), "ms"),
      ("alloc_mb_per_kcell", allocMbPerKcell, "MB"),
      ("detect_f1", score.f1Pct, "%"),
      ("repair_acc", score.repairPct, "%"),
    )
    out.println(s"passes: ${passes.size} (the first warms up), calls timed: ${timed.size}, failed: $failed of $attempted")
    out.println(f"unscaled: setup_s $setupS%.6f s, cells_per_s ${cases.map(_.cells.toDouble).sum / (rawInputMs.sum / 1000)}%.6f cells/s, " +
      f"call_ms_p50 ${Stats.median(rawInputMs)}%.6f ms; kernel median ${Stats.median(timed.map(_.kernelMs))}%.4f ms, " +
      f"so times are scaled by $speed%.4f")
    e2e.foreach { case (n, v, u) => out.println(f"metric $n%-20s $v%.6f $u") }
    if (p90Beyond >= 10) out.println(f"metric call_ms_p90          ${Stats.quantile(inputMs, 0.9)}%.6f ms  ($p90Beyond of ${inputMs.size} inputs beyond it)")
    else out.println(s"metric call_ms_p90          n/a ms  (${inputMs.size} inputs; needs 100 for 10 beyond p90)")
    if (score.failingBefore > 0)
      out.println(f"metric exec_fixed_pct       ${100.0 * (score.failingBefore - score.failingAfter) / score.failingBefore}%.6f %%  " +
        s"(${score.failingBefore - score.failingAfter} of ${score.failingBefore} failing rows fixed)")
    else out.println("metric exec_fixed_pct       n/a %  (no formula executions in this workload)")
    out.println(f"metric failed_frac          ${failed.toDouble / attempted}%.6f ratio")
    out.println(s"quality: tp=${score.tp} fp=${score.fp} fn=${score.fn} exact=${score.exact} injected=${score.injected}")

    val metrics =
      if (!a.trace) e2e
      else tracedPass(a, w, cases, digests, passes.tail.toVector, timed, problems, () => failed += 1)
    attempted += (if (a.trace) cases.size else 0)

    val json = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
      .mkString(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")
    out.println(json)
    out.flush()
    0
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString

  /** The traced pass and the per-layer metrics it yields. */
  private def tracedPass(a: Args, w: Workload, cases: Vector[Case], digests: Array[String], timedPasses: Vector[Pass],
                         samples: Vector[Sample], problems: ArrayBuffer[String],
                         fail: () => Unit): Vector[(String, Double, String)] = {
    val tr = new Trace
    val wall0 = System.nanoTime()
    for ((c, i) <- cases.zipWithIndex) {
      tr.callId = i
      val res = try Right(tr.span("call")(w.traced(c, tr))) catch { case NonFatal(e) => Left(e) }
      val errs = res match {
        case Left(e)  => Vector(s"${c.label}: traced call threw $e")
        case Right(o) => Option.when(o.digest != digests(i))(s"${c.label}: traced result differs").toVector
      }
      if (errs.nonEmpty) { fail(); problems ++= errs; errs.foreach(p => System.err.println(s"check failed: $p")) }
    }
    val tracedNs = System.nanoTime() - wall0
    writeLines(s"spans-${a.workload.name}-${a.seed}.tsv",
      "call\tspan\tname\tparent\tstart_ns\tend_ns" +: tr.spanLines.toVector)

    val lastPass = timedPasses.last
    val untracedNs = Stats.median(timedPasses.map(_.wallNs.toDouble))
    val cols = tr.counter("trace.columns")
    val kept = cols - tr.counter("trace.dropped_columns")
    val children = (Vector("semantics.mask", "pattern.learn", "pattern.match", "repair.concretizer",
      "repair.dp", "rank", "formulas.eval") ++ Option.when(w.cleanBuildsFeatures)("repair.features")).map(tr.ms).sum
    def frac(n: String, d: String): Double = if (tr.counter(d) == 0) 0.0 else tr.counter(n) / tr.counter(d)
    val layers = Vector(
      ("semantics.mask_ms", tr.ms("semantics.mask"), "ms"),
      ("semantics.values", tr.counter("semantics.values"), "count"),
      ("semantics.masked_frac", frac("semantics.masked_values", "semantics.values"), "ratio"),
      ("semantics.fuzzy_occs", tr.counter("semantics.fuzzy_occs"), "count"),
      ("pattern.learn_ms", tr.ms("pattern.learn"), "ms"),
      ("pattern.learned", tr.counter("pattern.learned"), "count"),
      ("pattern.over_k_cols", tr.counter("pattern.over_k_cols"), "count"),
      ("pattern.significant", tr.counter("pattern.significant"), "count"),
      ("pattern.match_ms", tr.ms("pattern.match"), "ms"),
      ("pattern.flagged", tr.counter("pattern.flagged"), "count"),
      ("repair.features_ms", tr.ms("repair.features"), "ms"),
      ("repair.features", tr.counter("repair.features"), "count"),
      ("repair.concretizer_ms", tr.ms("repair.concretizer"), "ms"),
      ("repair.captured_rows", tr.counter("repair.captured_rows"), "count"),
      ("repair.dp_ms", tr.ms("repair.dp"), "ms"),
      ("repair.dp_calls", tr.counter("repair.dp_calls"), "count"),
      ("repair.dp_cells", tr.counter("repair.dp_cells"), "count"),
      ("repair.suggested_frac", frac("repair.suggested", "pattern.flagged"), "ratio"),
      ("rank.ms", tr.ms("rank"), "ms"),
      ("rank.candidates", tr.counter("rank.candidates"), "count"),
      ("rank.lev_calls", tr.counter("rank.lev_calls"), "count"),
      ("rank.truncated_cells", tr.counter("rank.truncated_cells"), "count"),
      ("core.clean_ms", tr.ms("core.clean"), "ms"),
      ("core.self_ms", tr.ms("core.clean") - children, "ms"),
      ("formulas.eval_ms", tr.ms("formulas.eval"), "ms"),
      ("formulas.rows_evaluated", tr.counter("formulas.rows_evaluated"), "count"),
      ("formulas.failing_rows", tr.counter("formulas.failing_rows"), "count"),
      ("formulas.fixed_pct", if (tr.counter("formulas.failing_rows") == 0) 0.0
        else 100.0 * frac("formulas.fixed_rows", "formulas.failing_rows"), "%"),
      ("spark.plan_ms", tr.ms("spark.plan"), "ms"),
      ("spark.learn_ms", tr.ms("spark.learn"), "ms"),
      ("spark.apply_ms", tr.ms("spark.apply"), "ms"),
      ("spark.rows", tr.counter("spark.rows"), "count"),
      ("spark.null_repair_frac", frac("spark.null_repairs", "spark.flagged"), "ratio"),
      ("jvm.gc_ms", lastPass.gcMs.toDouble, "ms"),
      ("jvm.cpu_ms", lastPass.cpuNs / 1e6, "ms"),
      ("jvm.wait_ms", (lastPass.wallNs - lastPass.cpuNs) / 1e6, "ms"),
      ("trace.overhead_pct", 100.0 * (tracedNs / untracedNs - 1), "%"),
      ("trace.replay_coverage_pct", if (cols == 0) 0.0 else 100.0 * kept / cols, "%"),
      ("trace.dropped_columns", tr.counter("trace.dropped_columns"), "count"),
    ) ++ Scaling.metrics(w, cases, samples)
    System.out.println(s"trace: ${kept.toInt} of ${cols.toInt} columns replayed; rank.* is a lower bound on " +
      s"${tr.counter("rank.truncated_cells").toInt} cells whose exposed candidates were cut at five")
    if (w == FormulaTables)
      System.out.println("trace: rank.* is not replayed on formula_tables (ExecutionGuided.Result exposes no " +
        "candidates), so it reads 0 here and core.self_ms includes the ranking time")
    layers.foreach { case (n, v, u) => System.out.println(f"layer $n%-28s $v%.6f $u") }
    layers
  }

  /** Write a run artefact under .bench_build/runs. */
  private def writeLines(file: String, lines: Vector[String]): Unit = {
    val dir = Paths.get(".bench_build", "runs")
    Files.createDirectories(dir)
    Files.write(dir.resolve(file), lines.asJava, StandardCharsets.UTF_8)
  }
}

/** The column-length scaling curve (ROADMAP item 1): median untraced call
  * time per (archetype, length) rung, and the fitted log-log exponent per
  * archetype, from the traced runs of the column workloads.
  */
object Scaling {
  def rungs(w: Workload): Vector[(String, Vector[Int])] = w match {
    case LongColumns      => LongColumns.archetypes.map(_ -> LongColumns.ladder)
    case IrregularColumns => IrregularColumns.ladder
    case _                => Vector.empty
  }

  def metrics(w: Workload, cases: Vector[Case], samples: Vector[Main.Sample]): Vector[(String, Double, String)] = {
    val byGroup = samples.groupBy(s => cases(s.caseIdx).group).view.mapValues(ss => Stats.median(ss.map(_.ms))).toMap
    rungs(w).flatMap { case (arch, lens) =>
      val pts = lens.map(l => l -> byGroup.getOrElse(s"$arch/$l", 0.0))
      pts.map { case (l, ms) => (s"scaling.${arch}_${l}_ms", ms, "ms") } :+
        ((s"scaling.${arch}_exp", Stats.logLogSlope(pts.map { case (l, ms) => (l.toDouble, ms) }), "ratio"))
    }
  }
}
