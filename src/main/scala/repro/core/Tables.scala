package repro.core

import scala.collection.mutable

/** A named string column. */
final case class Column(name: String, values: Vector[String]) {
  def size: Int = values.length

  /** The column's dictionary, built on first use. */
  lazy val distinct: Distinct = Distinct(values)
}

/** A sequence of strings as a dictionary: its distinct values in first-seen
  * order, each row's id into them, and each id's row count. It is the
  * pipeline's only code that maps rows to distinct values; work that depends
  * only on a value runs once per id and reaches the rows through `ids`.
  */
final class Distinct private (val values: Vector[String], val ids: Array[Int], val counts: Array[Int]) {

  /** The number of rows whose id satisfies `p`. */
  def countRows(p: Int => Boolean): Int = counts.indices.iterator.filter(p).map(counts(_)).sum

  /** The rows of `rows` for which `p` holds, in order. `p` must depend only
    * on the row's value: it runs at the first row of each id in `rows`, and
    * its answer stands for the id's other rows.
    */
  def filterRows(rows: Iterable[Int])(p: Int => Boolean): Iterator[Int] = {
    val known = mutable.HashMap.empty[Int, Boolean]
    rows.iterator.filter(r => known.getOrElseUpdate(ids(r), p(r)))
  }
}

object Distinct {
  def apply(xs: Seq[String]): Distinct = {
    val idOf   = mutable.HashMap.empty[String, Int]
    val ds     = mutable.ArrayBuffer.empty[String]
    val ids    = xs.iterator.map(x => idOf.getOrElseUpdate(x, { ds += x; ds.size - 1 })).toArray
    val counts = new Array[Int](ds.size)
    ids.foreach(counts(_) += 1)
    new Distinct(ds.toVector, ids, counts)
  }
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

  /** Levenshtein edit distance over UTF-16 code units. The shorter string is
    * the bit-parallel kernel's pattern; when both are longer than one word
    * (64 chars) the row-by-row dynamic program runs instead.
    */
  def lev(a: String, b: String): Int =
    if (a.length > b.length) lev(b, a)
    else if (a.length <= 64) BitLev(a).distance(b)
    else levDp(a, b)

  /** `lev(p, ·)` for many distances from one string: `p`'s bitmasks are
    * built once, as the kernel's pattern whatever the other string's length
    * (the distance is symmetric). Beyond one word it is [[lev]].
    */
  def levFrom(p: String): String => Int =
    if (p.length <= 64) BitLev(p).distance else lev(p, _)

  /** `min(lev(p, v))` over the non-empty `values`. It builds `p`'s bitmasks
    * once and skips a value whose length differs from `p`'s by at least the
    * best distance so far, since the length difference bounds the distance
    * from below; it stops at distance 0.
    */
  def closestLev(p: String, values: Iterable[String]): Int = {
    require(values.nonEmpty, "closestLev over no values")
    val dist = levFrom(p)
    var best = Int.MaxValue
    val it = values.iterator
    while (best > 0 && it.hasNext) {
      val v = it.next()
      if (math.abs(v.length - p.length) < best) best = math.min(best, dist(v))
    }
    best
  }

  /** Myers' bit-vector Levenshtein (JACM 1999) in the global-distance form
    * of Hyyrö (Nordic J. Computing 2003): column j of the DP between the
    * pattern and a text is held as vertical +1/−1 delta bits, one bit per
    * pattern char, and advanced a whole column per text char. Bit i of
    * `eq(c)` is set when `p(i) == c`; ASCII chars index a table over the
    * range `lo..hi` of `p`'s ASCII codes, others a short scan list of `p`'s
    * distinct non-ASCII chars.
    */
  private final class BitLev private (p: String, lo: Int, ascii: Array[Long], others: Array[Char]) {
    private val otherMasks = new Array[Long](others.length)
    locally {
      var i = 0
      while (i < p.length) {
        val c = p.charAt(i)
        if (c < 128) ascii(c - lo) |= 1L << i else otherMasks(indexOfOther(c)) |= 1L << i
        i += 1
      }
    }

    /** The index of `c` in `others`, or `others.length`. */
    private def indexOfOther(c: Char): Int = {
      var k = 0
      while (k < others.length && others(k) != c) k += 1
      k
    }

    private def eq(c: Char): Long = {
      val i = c - lo
      if (i >= 0 && i < ascii.length) ascii(i)
      else if (c < 128) 0L
      else {
        val k = indexOfOther(c)
        if (k < others.length) otherMasks(k) else 0L
      }
    }

    /** `lev(p, t)`. */
    def distance(t: String): Int = {
      val m = p.length
      if (m == 0) return t.length
      val last = 1L << (m - 1)
      var vp = -1L
      var vn = 0L
      var dist = m
      var j = 0
      while (j < t.length) {
        val x = eq(t.charAt(j))
        val d0 = (((x & vp) + vp) ^ vp) | x | vn
        var hp = vn | ~(d0 | vp)
        var hn = d0 & vp
        if ((hp & last) != 0) dist += 1
        else if ((hn & last) != 0) dist -= 1
        hp = (hp << 1) | 1L
        hn = hn << 1
        vp = hn | ~(d0 | hp)
        vn = hp & d0
        j += 1
      }
      dist
    }
  }

  private object BitLev {
    /** The kernel of `p`: one pass over its chars finds the lowest and
      * highest ASCII code, which size the table, and its distinct non-ASCII
      * chars in first-seen order.
      */
    def apply(p: String): BitLev = {
      require(p.length <= 64)
      var lo = 128
      var hi = -1
      var others = Array.emptyCharArray // sized at the first non-ASCII char
      var n = 0
      var i = 0
      while (i < p.length) {
        val c = p.charAt(i)
        if (c < 128) { if (c < lo) lo = c; if (c > hi) hi = c }
        else {
          if (n == 0) others = new Array[Char](p.length - i)
          var k = 0
          while (k < n && others(k) != c) k += 1
          if (k == n) { others(n) = c; n += 1 }
        }
        i += 1
      }
      if (n < others.length) others = java.util.Arrays.copyOf(others, n)
      new BitLev(p, lo, new Array[Long](math.max(0, hi - lo + 1)), others)
    }
  }

  /** The row-by-row Levenshtein DP, for strings longer than one word. */
  private def levDp(a: String, b: String): Int = {
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

  /** Damerau-Levenshtein distance (with adjacent transpositions, in the
    * optimal-string-alignment form), so `bleu → blue` counts as one edit,
    * as the paper's LLM-repair examples assume. Fuzzy entity matching uses
    * its cut-off form, [[damerauWithin]].
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

  /** `min(damerau(a, b), k + 1)` for `k >= 0`: Ukkonen's cut-off DP (Inf.
    * Control 1985) over the band |i − j| ≤ k, in three rolling rows, that
    * stops once a row's minimum exceeds `k`. A cell outside the band, or
    * above `k`, reads as `k + 1`. Row minima never decrease, since a
    * transposition from row i − 2 costs at least the diagonal cell of row
    * i − 1 it skips.
    */
  def damerauWithin(a: String, b: String, k: Int): Int = {
    require(k >= 0, s"negative bound $k")
    val over = k + 1
    if (math.abs(a.length - b.length) > k) return over
    val m = b.length
    var before = new Array[Int](m + 1)
    var prev = Array.tabulate(m + 1)(j => math.min(j, over))
    var cur = new Array[Int](m + 1)
    for (i <- 1 to a.length) {
      val lo = math.max(1, i - k)
      val hi = math.min(m, i + k)
      cur(0) = math.min(i, over)
      if (lo > 1) cur(lo - 1) = over
      if (hi < m) cur(hi + 1) = over
      var rowMin = cur(lo - 1)
      for (j <- lo to hi) {
        var d = math.min(prev(j - 1) + (if (a(i - 1) == b(j - 1)) 0 else 1), math.min(prev(j), cur(j - 1)) + 1)
        if (i > 1 && j > 1 && a(i - 1) == b(j - 2) && a(i - 2) == b(j - 1))
          d = math.min(d, before(j - 2) + 1)
        cur(j) = math.min(d, over)
        rowMin = math.min(rowMin, cur(j))
      }
      if (rowMin > k) return over
      val t = before; before = prev; prev = cur; cur = t
    }
    prev(m)
  }

  /** True if the value parses as a number (Excel-style, ignoring thousands
    * separators). `toDouble` accepts nothing without an ASCII digit except
    * `NaN` and `Infinity`, so other values are rejected before it throws.
    */
  def isNumeric(s: String): Boolean =
    (s.exists(c => c >= '0' && c <= '9') || s.contains("NaN") || s.contains("Infinity")) &&
      scala.util.Try(s.replace(",", "").toDouble).isSuccess
}
