package repro.benchgen

import repro.core.{Column, ExecutionGuided, Table}
import repro.formulas.FormulaParser
import scala.util.Random

/** One benchmark cell with ground truth. `certain` marks cells whose clean
  * value is uniquely recoverable from the dirty one (the paper's "certain"
  * repair annotation; the rest are "possible" cases).
  */
final case class GenCell(col: Int, row: Int, dirty: String, clean: String,
                         isError: Boolean, certain: Boolean)

/** One benchmark table with ground truth, generated deterministically from
  * (benchmark, tableId). `formula` is non-empty only in the Excel-Formulas
  * benchmark.
  */
final case class GenTable(benchmark: String, tableId: Long,
                          colNames: Vector[String], archetypeNames: Vector[String],
                          nRows: Int, cells: Vector[GenCell],
                          formula: String, inputCols: Vector[Int]) {

  /** The dirty table as seen by the systems under evaluation. */
  def dirtyTable: Table = toTable(_.dirty)

  /** The latent clean table. */
  def cleanTable: Table = toTable(_.clean)

  private def toTable(f: GenCell => String): Table = {
    val byCol = cells.groupBy(_.col)
    Table(colNames.indices.toVector.map { c =>
      Column(colNames(c), byCol(c).sortBy(_.row).map(f))
    })
  }

  /** Ground-truth error rows per column. */
  def errorRows(c: Int): Set[Int] = cells.filter(x => x.col == c && x.isError).map(_.row).toSet

  /** First 5 ground-truth error rows per column — the supervision of
    * semi-supervised systems such as Raha (§4.3).
    */
  def supervisionLabels: Map[Int, Set[Int]] =
    colNames.indices.map(c => c -> errorRows(c).toVector.sorted.take(5).toSet).toMap
}

/** Deterministic generators for the four benchmarks of §4.2. Table counts
  * and row counts are scaled down from the paper (see EXPERIMENTS.md) but
  * keep the paper's proportions: Wikipedia tables are many-column/short,
  * Excel tables few-column/long, Synthetic uses the §4.2 corruption
  * protocol verbatim, and Excel-Formulas tables are kept only when at least
  * one and fewer than 25% of rows produce an error value.
  */
object BenchGen {

  /** Seeded RNG with a splitmix-style scramble: sequential table ids must
    * not produce correlated first draws (java.util.Random's first
    * `nextInt(2)` is nearly constant across adjacent seeds).
    */
  private def seededRng(seed: Long): Random = {
    var z = seed + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    new Random(z ^ (z >>> 31))
  }

  /** Corrupt one column of clean values; returns cells for that column. */
  private def corruptColumn(colIdx: Int, clean: Vector[String], rng: Random,
                            cellProb: Double, opCount: Random => Int): Vector[GenCell] =
    clean.zipWithIndex.map { case (v, r) =>
      if (rng.nextDouble() < cellProb) {
        Corruptions.corrupt(v, rng, opCount(rng)) match {
          case Some(c) => GenCell(colIdx, r, c.dirty, v, isError = true, certain = c.certain)
          case None    => GenCell(colIdx, r, v, v, isError = false, certain = true)
        }
      } else GenCell(colIdx, r, v, v, isError = false, certain = true)
    }

  private def pickDistinct(rng: Random, pool: Vector[Archetype], n: Int): Vector[Archetype] =
    rng.shuffle(pool).take(n)

  /** The Fig-2 correlated pair: (Category, PlayerID) where the id suffix is
    * a function of the category — clean values only; corruption is applied
    * by the caller like any other column.
    */
  def correlatedPair(rng: Random, n: Int): (Vector[String], Vector[String]) = {
    val countries = repro.semantics.SemanticKB.entities("country")
    val rows = Vector.fill(n) {
      val cat = if (rng.nextBoolean()) "Professional" else "Junior"
      val suffix = if (cat == "Professional") "PRO" else "CAT"
      val code = countries(rng.nextInt(countries.size)).form("code3").get
      (cat, s"$code-${100 + rng.nextInt(900)}-$suffix")
    }
    (rows.map(_._1), rows.map(_._2))
  }

  /** Clean columns for a table: optionally leads with the correlated pair,
    * then independent archetype draws.
    */
  private def genColumns(rng: Random, nCols: Int, pool: Vector[Archetype], nRows: Int,
                         pairProb: Double): Vector[(String, Vector[String])] = {
    val withPair = nCols >= 2 && rng.nextDouble() < pairProb
    val pairCols =
      if (withPair) {
        val (cat, ids) = correlatedPair(rng, nRows)
        Vector(("pairCategory", cat), ("pairPlayerId", ids))
      } else Vector.empty
    val rest = pickDistinct(rng, pool, nCols - pairCols.size)
      .map(a => (a.name, a.gen(rng, nRows)))
    pairCols ++ rest
  }

  /** Wikipedia-style: ~5 columns × ~27 rows, light corruption, mostly a
    * single noise op per dirty cell; occasional irregular column.
    */
  def wikipedia(id: Long): GenTable = {
    val rng   = seededRng(0x57161L * 31 + id)
    val nCols = 4 + rng.nextInt(3)
    val nRows = 20 + rng.nextInt(16)
    val pool = Archetypes.regular ++ Vector(Archetypes.freeText) // ~5% irregular
    val cols = genColumns(rng, nCols, pool, nRows, pairProb = 0.25)
    val cells = cols.zipWithIndex.flatMap { case ((_, vs), c) =>
      corruptColumn(c, vs, rng, 0.06, r => if (r.nextDouble() < 0.7) 1 else 2)
    }
    GenTable("wikipedia", id, cols.indices.map(i => s"c$i").toVector,
      cols.map(_._1), nRows, cells, "", Vector.empty)
  }

  /** Excel-style: 1–2 columns × hundreds of rows, more irregular columns. */
  def excel(id: Long): GenTable = {
    val rng   = seededRng(0xE8CE1L * 31 + id)
    val nCols = 1 + rng.nextInt(2)
    val nRows = 120 + rng.nextInt(180)
    val pool = Archetypes.regular ++ Archetypes.all.filter(_.irregular) ++ Archetypes.all.filter(_.irregular)
    val cols = genColumns(rng, nCols, pool, nRows, pairProb = 0.3)
    val cells = cols.zipWithIndex.flatMap { case ((_, vs), c) =>
      corruptColumn(c, vs, rng, 0.06, r => if (r.nextDouble() < 0.6) 1 else 2)
    }
    GenTable("excel", id, cols.indices.map(i => s"c$i").toVector,
      cols.map(_._1), nRows, cells, "", Vector.empty)
  }

  /** Synthetic-Errors: the §4.2 protocol — 20% of cells corrupted, 1–4 ops
    * each (25% without replacement); a sprinkle of *inherent* errors
    * (corruptions present in the "original" table that ground truth cannot
    * see) deflates precision, as the paper notes.
    */
  def synthetic(id: Long): GenTable = {
    val rng   = seededRng(0x5D47L * 31 + id)
    val nCols = 3 + rng.nextInt(3)
    val nRows = 80 + rng.nextInt(120)
    val cols = genColumns(rng, nCols, Archetypes.regular, nRows, pairProb = 0.5)
    val cells = cols.zipWithIndex.flatMap { case ((_, vs), c) =>
      // inherent noise first: becomes part of the "original" ground truth
      val original = vs.map { v =>
        if (rng.nextDouble() < 0.02) Corruptions.corrupt(v, rng, 1).map(_.dirty).getOrElse(v) else v
      }
      corruptColumn(c, original, rng, 0.20, Corruptions.sampleOpCount)
    }
    GenTable("synthetic", id, cols.indices.map(i => s"c$i").toVector,
      cols.map(_._1), nRows, cells, "", Vector.empty)
  }

  // ---- Excel-Formulas ----------------------------------------------------

  /** Single-column (archetype, formula) templates. */
  val singleColTemplates: Vector[(String, String)] = Vector(
    ("phone",         """=SEARCH("-",[@c0])"""),
    ("countryCodeId", """=VALUE(RIGHT([@c0],LEN([@c0])-SEARCH("-",[@c0])))"""),
    ("chromeVer",     """=VALUE(RIGHT([@c0],LEN([@c0])-LEN("Chrome")))"""),
    ("quarter",       """=VALUE(MID([@c0],2,1))"""),
    ("plainNumber",   """=VALUE([@c0])*2"""),
    ("stateCode",     """=SEARCH("_",[@c0])"""),
    ("nameId",        """=VALUE(RIGHT([@c0],3))"""),
    ("versionStr",    """=VALUE(MID([@c0],2,1))"""),
    ("timeMMSS",      """=VALUE(LEFT([@c0],2))+VALUE(RIGHT([@c0],2))"""),
    ("serialDotted",  """=VALUE(MID([@c0],3,1))"""),
    ("url",           """=SEARCH("www.",[@c0])"""),
  )

  /** Multi-column (archetypes, formula) templates (2–4 inputs, avg ~3). */
  val multiColTemplates: Vector[(Vector[String], String)] = Vector(
    (Vector("countryCodeId", "plainNumber"),
      """=VALUE(RIGHT([@c0],3))+VALUE([@c1])"""),
    (Vector("phone", "stateCode", "plainNumber"),
      """=SEARCH("-",[@c0])+SEARCH("_",[@c1])+VALUE([@c2])"""),
    (Vector("chromeVer", "plainNumber", "quarter"),
      """=VALUE(RIGHT([@c0],LEN([@c0])-6))*VALUE([@c1])+VALUE(MID([@c2],2,1))"""),
    (Vector("nameId", "timeMMSS", "plainNumber", "versionStr"),
      """=VALUE(RIGHT([@c0],3))+VALUE(LEFT([@c1],2))+VALUE([@c2])+VALUE(MID([@c3],2,1))"""),
    (Vector("quarter", "timeMMSS", "serialDotted"),
      """=VALUE(MID([@c0],2,1))+VALUE(LEFT([@c1],2))+VALUE(MID([@c2],3,1))"""),
  )

  /** Execution-breaking entry-error modes, modeled on the paper's own
    * examples: delimiter-less values (`4405764039` in Fig. 1), dropped
    * letter prefixes (`C30` in Fig. 8), and letters inside numeric runs.
    * The first two are uniquely recoverable from the majority pattern.
    */
  private def breakingCorrupt(v: String, rng: Random): Option[(String, String, Boolean)] = {
    val stripped = v.filterNot(c => "-_./:, ()".contains(c))
    val digitIdx = v.indices.filter(v(_).isDigit)
    val letterRun = "[A-Za-z]{2,}".r.findFirstMatchIn(v)
    val options = Vector.newBuilder[(String, String, Boolean)]
    if (stripped != v && stripped.nonEmpty) options += ((stripped, "stripdelims", true))
    letterRun.foreach { m =>
      val dropped = v.substring(0, m.start + 1) + v.substring(m.end)
      options += ((dropped, "dropprefix", true))
    }
    if (digitIdx.nonEmpty) {
      val i = digitIdx(rng.nextInt(digitIdx.size))
      options += ((v.updated(i, ('a' + rng.nextInt(26)).toChar), "digit2letter", false))
    }
    val opts = options.result().filter(_._1 != v)
    if (opts.isEmpty) None else Some(opts(rng.nextInt(opts.size)))
  }

  /** Corrupt a formula-input column: a mix of generic §4.2 noise and the
    * execution-breaking modes above.
    */
  private def corruptFormulaColumn(colIdx: Int, clean: Vector[String], rng: Random,
                                   cellProb: Double): Vector[GenCell] =
    clean.zipWithIndex.map { case (v, r) =>
      if (rng.nextDouble() < cellProb) {
        if (rng.nextDouble() < 0.5) {
          breakingCorrupt(v, rng) match {
            case Some((dirty, _, certain)) => GenCell(colIdx, r, dirty, v, isError = true, certain)
            case None                      => GenCell(colIdx, r, v, v, isError = false, certain = true)
          }
        } else Corruptions.corrupt(v, rng, if (rng.nextDouble() < 0.7) 1 else 2) match {
          case Some(c) => GenCell(colIdx, r, c.dirty, v, isError = true, certain = c.certain)
          case None    => GenCell(colIdx, r, v, v, isError = false, certain = true)
        }
      } else GenCell(colIdx, r, v, v, isError = false, certain = true)
    }

  /** Excel-Formulas: ~65% single-input, ~35% multi-input (paper: 7.2k/3.8k).
    * Retries seeds until 1 ≤ failing rows < 25% of rows, as in §4.2.
    */
  def formulas(id: Long): GenTable = {
    val isSingle = (id % 20) < 13
    def attemptGen(attempt: Long): GenTable = {
      val rng = seededRng(0xF0A3L * 131 + id * 31 + attempt)
      val nRows = 50 + rng.nextInt(100)
      val (archNames, formula) =
        if (isSingle) { val (a, f) = singleColTemplates((id % singleColTemplates.size).toInt); (Vector(a), f) }
        else { val (as, f) = multiColTemplates((id % multiColTemplates.size).toInt); (as, f) }
      val archs = archNames.map(Archetypes.byName)
      val cells = archs.zipWithIndex.flatMap { case (a, c) =>
        corruptFormulaColumn(c, a.gen(rng, nRows), rng, 0.10)
      }
      GenTable("formulas", id, archs.indices.map(i => s"c$i").toVector,
        archs.map(_.name), nRows, cells, formula, archs.indices.toVector)
    }
    val candidates = (0L until 8L).iterator.map(attemptGen)
    candidates.find { t =>
      val failing = failingRows(t)
      failing.nonEmpty && failing.size < t.nRows / 4
    }.getOrElse(attemptGen(0L))
  }

  /** Rows of a formula table whose output is an Excel error value. */
  def failingRows(t: GenTable): Set[Int] =
    ExecutionGuided.failingRows(t.dirtyTable,
      FormulaParser.parse(t.formula).fold(e => throw new IllegalArgumentException(e), identity))
}
