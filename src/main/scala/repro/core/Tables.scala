package repro.core

/** A named string column. */
final case class Column(name: String, values: Vector[String]) {
  def size: Int = values.length
}

/** The in-memory table the core algorithms operate on. Spark DataFrames are
  * converted to/from this representation at the edges ([[DataVinciSpark]],
  * the benchmark harness); all tables in the paper's benchmarks are small
  * (tens to hundreds of rows), so a columnar in-memory form is faithful to
  * the original system.
  */
final case class Table(cols: Vector[Column]) {
  require(cols.isEmpty || cols.map(_.size).distinct.size == 1, "ragged table")

  def numRows: Int = if (cols.isEmpty) 0 else cols.head.size
  def numCols: Int = cols.length

  def col(i: Int): Column = cols(i)
  def colIdx(name: String): Int = cols.indexWhere(_.name == name)

  /** Row as name → value. */
  def row(i: Int): Map[String, String] = cols.map(c => c.name -> c.values(i)).toMap

  /** Replace a single cell. */
  def updated(c: Int, r: Int, v: String): Table =
    Table(cols.updated(c, cols(c).copy(values = cols(c).values.updated(r, v))))
}

object Table {
  /** Build from (name, values) pairs. */
  def of(cols: (String, Seq[String])*): Table =
    Table(cols.toVector.map { case (n, vs) => Column(n, vs.toVector) })
}

/** Small string utilities shared across the repo. */
object Strings {
  /** Levenshtein edit distance. */
  def lev(a: String, b: String): Int = {
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    val prev = Array.tabulate(b.length + 1)(identity)
    val cur  = new Array[Int](b.length + 1)
    for (i <- 1 to a.length) {
      cur(0) = i
      for (j <- 1 to b.length) {
        val c = if (a(i - 1) == b(j - 1)) 0 else 1
        cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + c)
      }
      Array.copy(cur, 0, prev, 0, cur.length)
    }
    prev(b.length)
  }

  /** Damerau-Levenshtein distance (with adjacent transpositions) — used for
    * fuzzy entity matching so `bleu → blue` counts as one edit, as the
    * paper's LLM-repair examples assume.
    */
  def damerau(a: String, b: String): Int = {
    val d = Array.ofDim[Int](a.length + 1, b.length + 1)
    for (i <- 0 to a.length) d(i)(0) = i
    for (j <- 0 to b.length) d(0)(j) = j
    for (i <- 1 to a.length; j <- 1 to b.length) {
      val c = if (a(i - 1) == b(j - 1)) 0 else 1
      d(i)(j) = math.min(math.min(d(i - 1)(j) + 1, d(i)(j - 1) + 1), d(i - 1)(j - 1) + c)
      if (i > 1 && j > 1 && a(i - 1) == b(j - 2) && a(i - 2) == b(j - 1))
        d(i)(j) = math.min(d(i)(j), d(i - 2)(j - 2) + 1)
    }
    d(a.length)(b.length)
  }

  /** True if the value parses as a number (Excel-style, ignoring thousands
    * separators). `toDouble` accepts nothing without an ASCII digit except
    * `NaN` and `Infinity`, so other values are rejected before it throws.
    */
  def isNumeric(s: String): Boolean =
    (s.exists(c => c >= '0' && c <= '9') || s.contains("NaN") || s.contains("Infinity")) &&
      scala.util.Try(s.replace(",", "").toDouble).isSuccess
}
