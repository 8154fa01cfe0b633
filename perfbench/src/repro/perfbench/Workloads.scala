package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit}
import repro.Oracle
import repro.baselines.DataVinciSystem
import repro.benchgen.{Archetypes, BenchGen, Corruptions, GenTable}
import repro.core.{DataVinci, DataVinciSpark, ExecutionGuided, Table}
import repro.core.pattern.Masks
import repro.formulas.{Expr, FormulaParser}
import scala.util.Random

/** One generated input. `truth` maps each injected error cell (column, row)
  * to its clean value; `group` names the (archetype, length) rung of the
  * scaling ladders.
  */
final case class Case(label: String, group: String, table: Table,
                      truth: Map[(Int, Int), String],
                      formula: Option[(Expr, Vector[Int])] = None) {
  def cells: Int = table.numRows * table.numCols
  def original(cell: (Int, Int)): String = table.col(cell._1).values(cell._2)
}

/** What one call returned: the cells it flagged and the repairs it
  * suggested. The formula and DataFrame paths add their own counts.
  */
final case class Output(flagged: Set[(Int, Int)], repairs: Map[(Int, Int), String],
                        failingBefore: Int = 0, failingAfter: Int = 0,
                        nullRepairs: Int = 0) {
  /** Canonical text of the result; equal outputs have equal digests. */
  def digest: String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    flagged.toVector.sorted.foreach { case (c, r) => md.update(s"f$c,$r;".getBytes("UTF-8")) }
    repairs.toVector.sortBy(_._1).foreach { case ((c, r), v) => md.update(s"r$c,$r=$v;".getBytes("UTF-8")) }
    md.update(s"$failingBefore/$failingAfter/$nullRepairs".getBytes("UTF-8"))
    md.digest().map("%02x".format(_)).mkString
  }
}

/** A benchmark workload: its seeded inputs and the call it times. */
sealed abstract class Workload(val name: String) {
  val cfg: DataVinci.Config = DataVinci.Config()

  /** The inputs of one pass; `warmup` draws a disjoint set from the same seed. */
  def cases(seed: Long, warmup: Boolean): Vector[Case]

  /** The inputs of a traced run's passes. */
  def tracedCases(seed: Long): Vector[Case] = cases(seed, warmup = false)

  /** The timed call. */
  def call(c: Case): Output

  /** The call with its per-layer replay. */
  def traced(c: Case, t: Trace): Output

  /** Checks beyond the common ones over the first pass's outputs (`None`
    * where the call threw), run once after that pass, outside the timed
    * region: the index of each failing call with its problems.
    */
  def checkPass(cases: Vector[Case], outs: Vector[Option[Output]]): Map[Int, Vector[String]] = Map.empty

  /** Count allocation on every JVM thread, not only the caller's. */
  def allThreads: Boolean = false

  /** The traced `core.clean` span builds the table's predicate features
    * itself, so `core.self_ms` subtracts them.
    */
  def cleanBuildsFeatures: Boolean = false

  /** One-time set-up (session start); its time is part of `setup_s`. */
  def open(): Unit = ()

  def close(): Unit = ()
}

object Workload {
  val all: Vector[Workload] = Vector(WikiTables, LongColumns, IrregularColumns, FormulaTables, SparkColumn)

  def byName(n: String): Option[Workload] = all.find(_.name == n)

  /** Seeded RNG for one workload's stream; warm-up inputs use another stream. */
  def rng(seed: Long, salt: Long, warmup: Boolean): Random =
    new Random(seed * 0x9E3779B97F4A7C15L + salt * 1000003L + (if (warmup) 7919L else 0L))

  /** `n` distinct generator table ids drawn from the seed. */
  def tableIds(rng: Random, n: Int): Vector[Long] =
    Iterator.continually(rng.nextInt(1 << 30).toLong).distinct.take(n).toVector

  def fromGen(g: GenTable): Case =
    Case(s"${g.benchmark}#${g.tableId}", g.benchmark, g.dirtyTable,
      g.cells.filter(_.isError).map(x => (x.col, x.row) -> x.clean).toMap)

  /** A single-column case: `rows` clean values of `archetype`, with a share
    * `errRate` of cells given one §4.2 noise operation.
    */
  def column(archetype: String, rows: Int, rng: Random, errRate: Double): Case = {
    val clean = Archetypes.byName(archetype).gen(rng, rows)
    val dirty = clean.map { v =>
      if (rng.nextDouble() < errRate) Corruptions.corrupt(v, rng, 1).map(_.dirty).getOrElse(v) else v
    }
    val truth = clean.indices.filter(r => dirty(r) != clean(r)).map(r => (0, r) -> clean(r)).toMap
    Case(s"$archetype@$rows", s"$archetype/$rows", Table.of("c0" -> dirty), truth)
  }

  def fromColumns(res: Iterable[DataVinci.ColumnResult]): Output =
    Output(
      res.iterator.flatMap(r => r.errors.iterator.map(e => (r.colIdx, e))).toSet,
      res.iterator.flatMap(r => r.repairs.iterator.flatMap { case (row, cr) =>
        cr.suggestion.map(s => (r.colIdx, row) -> s) }).toMap)

  /** The checks every call's output must pass. */
  def commonChecks(c: Case, out: Output): Vector[String] =
    out.repairs.iterator.flatMap { case (cell, s) =>
      val orig = c.original(cell)
      Iterator(
        Option.when(s.exists(Masks.isMask))(s"${c.label} $cell: suggestion contains a mask code point"),
        Option.when(s == orig)(s"${c.label} $cell: suggestion equals the original value '$orig'"),
      ).flatten
    }.toVector
}

/** Paper Table 10 regime: many short Wikipedia-style tables. */
object WikiTables extends Workload("wiki_tables") {
  val tablesPerPass = 600
  private lazy val system = new DataVinciSystem(cfg)

  def cases(seed: Long, warmup: Boolean): Vector[Case] =
    Workload.tableIds(Workload.rng(seed, 1, warmup), if (warmup) 40 else tablesPerPass)
      .map(id => Workload.fromGen(BenchGen.wikipedia(id)))

  def call(c: Case): Output = {
    val out = system.clean(c.table)
    Output(out.iterator.flatMap { case (col, o) => o.errors.map(r => (col, r)) }.toSet,
      out.iterator.flatMap { case (col, o) => o.repairs.map { case (r, s) => (col, r) -> s } }.toMap)
  }

  def traced(c: Case, t: Trace): Output = {
    val feats = new Replay.SharedFeatures(c.table, t)
    Workload.fromColumns(c.table.cols.indices.map(i => Replay.cleanColumn(c.table, i, cfg, feats, t)))
  }
}

/** Shared shape of the single-column workloads: one call per column. */
sealed abstract class ColumnWorkload(name: String) extends Workload(name) {
  def call(c: Case): Output = Workload.fromColumns(Seq(DataVinci.cleanColumn(c.table, 0, cfg)))

  def traced(c: Case, t: Trace): Output =
    Workload.fromColumns(Seq(Replay.cleanColumn(c.table, 0, cfg, new Replay.SharedFeatures(c.table, t), t)))
}

/** Regular archetypes on a doubling length ladder: the repair engine's
  * super-linear regime. A timed pass holds 8 columns per archetype at each
  * of 100, 200 and 400 rows. It stops at 400 rows because the cost of one
  * column at 800 rows and more is heavy-tailed across seeds (0.1 s to 0.6 s
  * at 800 rows), and a few such columns would decide a run's figures. The
  * traced run instead times one column per archetype at every length up to
  * 3 200 rows, for the scaling curve. Its timing spreads across seeds reached
  * the largest bound BENCHMARK.json allows, so it is not listed there; run
  * it by name.
  */
object LongColumns extends ColumnWorkload("long_columns") {
  val archetypes = Vector("phone", "url", "countryCodeId", "nameId", "city", "categorical")
  val ladder = Vector(100, 200, 400, 800, 1600, 3200)
  val timedLadder = Vector(100 -> 8, 200 -> 8, 400 -> 8)

  private def ladderCases(seed: Long, rungs: Vector[(Int, Int)], warmup: Boolean): Vector[Case] = {
    val rng = Workload.rng(seed, 2, warmup)
    for ((len, n) <- rungs; _ <- 1 to n; a <- archetypes) yield Workload.column(a, len, rng, 0.10)
  }

  def cases(seed: Long, warmup: Boolean): Vector[Case] =
    ladderCases(seed, if (warmup) Vector(100 -> 1, 200 -> 1) else timedLadder, warmup)

  override def tracedCases(seed: Long): Vector[Case] = ladderCases(seed, ladder.map(_ -> 1), warmup = false)
}

/** Irregular columns (Fig. 6): the only regime where pattern learning
  * dominates. Whether a freeText column is falsely flagged, and how long its
  * patterns take to learn, depends on the seed (0.3 s to 30 s at 1 200
  * rows), so this workload's figures are not steady across seeds and it is
  * not listed in BENCHMARK.json; run it by name.
  */
object IrregularColumns extends ColumnWorkload("irregular_columns") {
  val freeTextColumns = 4
  /** (archetype, lengths); the last freeText rung holds `freeTextColumns` columns. */
  val ladder = Vector("freeText" -> Vector(300, 600, 1200), "measureMixed" -> Vector(400, 800, 1600),
    "mixedIds" -> Vector(400, 800, 1600))

  def cases(seed: Long, warmup: Boolean): Vector[Case] = {
    val rng = Workload.rng(seed, 3, warmup)
    if (warmup) Vector(Workload.column("freeText", 200, rng, 0.10), Workload.column("mixedIds", 200, rng, 0.10))
    else for {
      (a, lens) <- ladder
      len <- lens
      _ <- 1 to (if (a == "freeText" && len == lens.last) freeTextColumns else 1)
    } yield Workload.column(a, len, rng, 0.10)
  }
}

/** Excel-formula tables cleaned through execution-guided repair (§3.6). */
object FormulaTables extends Workload("formula_tables") {
  /** The generator picks a table's template from its id modulo 220, so a
    * pass takes one id from each residue; each block of 44 residues takes
    * tables from one 20-row band of the generator's 50–149 rows. Every pass
    * then has the same template and length mix (65 % single-input), and the
    * seed picks the tables' contents: the median call time, which falls in
    * a steep part of the distribution, no longer moves with the mix.
    */
  val tablesPerPass = 220

  def cases(seed: Long, warmup: Boolean): Vector[Case] = {
    val rng = Workload.rng(seed, 4, warmup)
    val residues = if (warmup) rng.shuffle((0 until tablesPerPass).toVector).take(20) else 0 until tablesPerPass
    residues.toVector.map { i =>
      val g = Iterator.continually(BenchGen.formulas(i + tablesPerPass.toLong * (1 + rng.nextInt(1 << 20))))
        .find(t => (t.nRows - 50) / 20 == i / 44).get
      val expr = FormulaParser.parse(g.formula).fold(e => throw new IllegalArgumentException(e), identity)
      Workload.fromGen(g).copy(formula = Some((expr, g.inputCols)))
    }
  }

  override def cleanBuildsFeatures: Boolean = true

  private def outputOf(r: ExecutionGuided.Result): Output =
    Output(r.repairs.keySet, r.repairs, r.failingBefore.size, r.failingAfter.size)

  def call(c: Case): Output = {
    val (expr, inputs) = c.formula.get
    outputOf(ExecutionGuided.clean(c.table, expr, inputs, cfg))
  }

  def traced(c: Case, t: Trace): Output = {
    val (expr, inputs) = c.formula.get
    val table = c.table
    val res = t.span("core.clean")(ExecutionGuided.clean(table, expr, inputs, cfg))
    // the two evaluations clean makes: before repair, and after
    val before = t.span("formulas.eval")(ExecutionGuided.failingRows(table, expr))
    val after = t.span("formulas.eval")(ExecutionGuided.failingRows(res.repairedTable, expr))
    t.count("formulas.rows_evaluated", table.numRows * (if (before.isEmpty) 1 else 2))
    t.count("formulas.failing_rows", before.size)
    t.count("formulas.fixed_rows", (before -- after).size)
    if (before.nonEmpty) {
      val feats = new Replay.SharedFeatures(table, t)
      for (ci <- inputs) {
        val s = new Trace
        val det = Replay.detect(table.col(ci).values, cfg, s, r => !before(r), allSignificant = true,
          before.toVector.sorted, semanticErrors = false)
        if (det.errors.nonEmpty) Replay.repairStages(table, det, feats.get, cfg, s)
        val repairedRows = res.repairs.keySet.collect { case (`ci`, r) => r }
        s.count("repair.suggested", repairedRows.size)
        Replay.commit(t, s, repairedRows.subsetOf(det.errors) &&
          before == res.failingBefore && after == res.failingAfter)
      }
    }
    outputOf(res)
  }
}

/** `DataVinciSpark.repairColumn` on customer-name DataFrames larger than the
  * learning sample, followed by an action. Rows beyond the sample are
  * detected but get a null repair, so `repair_acc` shows the missing
  * repairs. Whether a frame's learned model keeps the clean pattern or the
  * cap on k patterns merges it away varies from frame to frame; a pass holds
  * many small frames so that no few frames decide the quality metrics.
  */
object SparkColumn extends Workload("spark_column") {
  val rowsPerFrame = 1000
  val framesPerPass = 64
  val maxSample = 400
  val errRate = 0.05

  private var spark: SparkSession = _
  private val frames = scala.collection.mutable.Map.empty[String, DataFrame]
  /** The latest result frame of each input, for [[checkPass]]. */
  private val results = scala.collection.mutable.Map.empty[String, DataFrame]

  override def allThreads: Boolean = true

  override def open(): Unit = {
    val dir = java.nio.file.Paths.get(".bench_build").toAbsolutePath
    // one task thread: the calibration kernel, on the driver thread, then
    // sees the load the frames' work meets, and other tenants' load on the
    // other cores of a shared host does not decide the figures
    val threads = 1
    spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", threads.toString)
      .config("spark.local.dir", dir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", dir.resolve("spark-warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
  }

  override def close(): Unit = if (spark != null) spark.stop()

  def cases(seed: Long, warmup: Boolean): Vector[Case] = {
    val rng = Workload.rng(seed, 5, warmup)
    val n = if (warmup) 1 else framesPerPass
    Vector.tabulate(n) { i =>
      val first = 1 + rng.nextInt(1 << 20).toLong
      val clean = Vector.tabulate(rowsPerFrame)(r => f"Customer#${first + r}%09d")
      val dirty = clean.map { v =>
        if (rng.nextDouble() < errRate) Corruptions.corrupt(v, rng, 1).map(_.dirty).getOrElse(v) else v
      }
      val label = s"customer@$first${if (warmup) "w" else ""}#$i"
      val s = spark
      import s.implicits._
      frames(label) = dirty.indices.map(r => (r.toLong, dirty(r))).toDF("row", "c_name")
      val truth = clean.indices.filter(r => dirty(r) != clean(r)).map(r => (0, r) -> clean(r)).toMap
      Case(label, s"customer/$rowsPerFrame", Table.of("c_name" -> dirty), truth)
    }
  }

  private def act(out: DataFrame): Output = {
    val rows = out.filter(col("c_name__error")).select("row", "c_name__repair").collect()
    Output(rows.map(r => (0, r.getLong(0).toInt)).toSet,
      rows.iterator.filter(!_.isNullAt(1)).map(r => (0, r.getLong(0).toInt) -> r.getString(1)).toMap,
      nullRepairs = rows.count(_.isNullAt(1)))
  }

  def call(c: Case): Output = {
    val out = DataVinciSpark.repairColumn(frames(c.label), "c_name", cfg, maxSample)
    results(c.label) = out
    act(out)
  }

  def traced(c: Case, t: Trace): Output = {
    val out = t.span("spark.plan")(DataVinciSpark.repairColumn(frames(c.label), "c_name", cfg, maxSample))
    val res = t.span("spark.apply")(act(out))
    t.count("spark.rows", c.table.numRows)
    t.count("spark.flagged", res.flagged.size)
    t.count("spark.null_repairs", res.nullRepairs)
    // the sample repairColumn learns from, learned again under its own span
    val sample = c.table.col(0).values.take(maxSample)
    t.span("spark.learn")(DataVinciSpark.learnColumnModel(sample, cfg))
    val sampleTable = Table.of("c_name" -> sample)
    Replay.cleanColumn(sampleTable, 0, cfg, new Replay.SharedFeatures(sampleTable, t), t)
    res
  }

  /** One DuckDB oracle over the whole pass: the flagged-row count of every
    * frame's result, grouped by frame, must agree with DuckDB's count over
    * the same rows, and with the rows the frame's action collected. A
    * disagreement with DuckDB fails every call of the pass. One oracle query
    * over the flagged rows, instead of one per frame over all rows, keeps the
    * check (Spark jobs, DuckDB inserts) from taking most of the run.
    */
  override def checkPass(cases: Vector[Case], outs: Vector[Option[Output]]): Map[Int, Vector[String]] = {
    val done = cases.indices.filter(i => outs(i).isDefined && results.contains(cases(i).label))
    if (done.isEmpty) return Map.empty
    val flaggedRows = done.map { i =>
      results(cases(i).label).filter(col("c_name__error")).select(lit(i).as("frame"))
    }.reduce(_ unionByName _).cache()
    val agg = flaggedRows.groupBy("frame").agg(count(lit(1)).as("n"))
    val oracle =
      try { Oracle.assertEquivalent(agg, "SELECT frame, COUNT(*) AS n FROM flagged GROUP BY frame",
        "flagged" -> flaggedRows); None }
      catch { case e: IllegalArgumentException => Some(s"DuckDB oracle: ${e.getMessage}") }
    val counts = agg.collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    flaggedRows.unpersist()
    results.clear()
    done.map { i =>
      val n = counts.getOrElse(i, 0L)
      val got = outs(i).get.flagged.size
      i -> (oracle.map(m => s"${cases(i).label}: $m").toVector ++
        Option.when(n != got)(s"${cases(i).label}: action collected $got flagged rows, aggregate counts $n").toVector)
    }.filter(_._2.nonEmpty).toMap
  }
}
