package repro.core.repair

import repro.core.{Column, Strings, Table}

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Boolean row features from the Table-2 predicate templates (§3.4).
  *
  * Candidate string constants come from the column's values and from tokens
  * obtained by splitting on non-alphanumeric characters, case changes and
  * alpha/digit switches; `length` uses the top-5 most frequent cell lengths.
  * Features that are constant across the table (all-true or all-false) are
  * dropped as uninformative, and so is each feature whose rows equal those
  * of an earlier feature of the table: a tree splitting on the lowest index
  * among equal errors never picks the copy.
  *
  * A column's features are built over the column's dictionary: each template
  * is evaluated once per distinct value, its row count is the sum of those
  * values' counts, and a kept feature's bits are set through each row's id.
  */
object Predicates {

  /** A named boolean feature over the rows of a table, as a bitset: row `r`
    * is bit `r & 63` of word `r >>> 6` (the layout of `DecisionTree`'s
    * kernel).
    */
  final class Feature(val name: String, val rows: Int, val bits: Array[Long]) {
    def apply(row: Int): Boolean = ((bits(row >>> 6) >>> row) & 1L) != 0

    /** The per-row values, read from the bits. */
    def values: IndexedSeq[Boolean] = new IndexedSeq[Boolean] {
      def length: Int = rows
      def apply(row: Int): Boolean = {
        if (row < 0 || row >= rows) throw new IndexOutOfBoundsException(s"$row not in 0 until $rows")
        Feature.this(row)
      }
    }
  }

  object Feature {
    def apply(name: String, values: Array[Boolean]): Feature = {
      val bits = new Array[Long]((values.length + 63) >>> 6)
      for (r <- values.indices if values(r)) bits(r >>> 6) |= 1L << r
      new Feature(name, values.length, bits)
    }
  }

  private def isAsciiAlnum(c: Char): Boolean =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

  /** A token boundary between adjacent characters `p` and `c`. */
  private def isBoundary(p: Char, c: Char): Boolean =
    (p.isLower && c.isUpper) ||
    (p.isLetter && c.isDigit) || (p.isDigit && c.isLetter) ||
    !c.isLetterOrDigit || !p.isLetterOrDigit

  /** Split a value into candidate constant tokens (§3.4): the maximal runs of
    * ASCII letters and digits, then the segments between case changes,
    * alpha/digit switches and every other character, each token once, in
    * first-seen order. The unsplit value is a *column-value* constant, added
    * by `featuresOf`.
    */
  def tokensOf(v: String): Vector[String] = {
    val out = Vector.newBuilder[String]
    def emit(from: Int, until: Int): Unit =
      if (from < until && until - from < v.length) out += v.substring(from, until)
    var i = 0
    while (i < v.length) {
      val start = i
      while (i < v.length && isAsciiAlnum(v(i))) i += 1
      if (i == start) i += 1 else emit(start, i)
    }
    var start = 0
    i = 1
    while (i <= v.length) {
      if (i == v.length || isBoundary(v(i - 1), v(i))) { emit(start, i); start = i }
      i += 1
    }
    out.result().distinct
  }

  private val MaxConstantsPerColumn = 40

  /** Generate all features over every column of `table`, each row set once. */
  def featuresOf(table: Table): Vector[Feature] = {
    val out = Vector.newBuilder[Feature]
    table.cols.foreach(columnFeatures(_, out))
    val seen = mutable.HashSet.empty[ArraySeq[Long]]
    out.result().filter(f => seen.add(ArraySeq.unsafeWrapArray(f.bits)))
  }

  private def columnFeatures(col: Column, out: mutable.Growable[Feature]): Unit = {
    val n    = col.size
    val dict = col.distinct
    val ds   = dict.values
    val m    = ds.size

    /** Adds the feature `p` of a distinct id, unless it is constant over the rows. */
    def add(name: String, p: Int => Boolean): Unit = {
      val hit  = new Array[Boolean](m)
      var rows = 0
      var d    = 0
      while (d < m) { if (p(d)) { hit(d) = true; rows += dict.counts(d) }; d += 1 }
      if (rows > 0 && rows < n) {
        val bits = new Array[Long]((n + 63) >>> 6)
        var r = 0
        while (r < n) { if (hit(dict.ids(r))) bits(r >>> 6) |= 1L << r; r += 1 }
        out += new Feature(name, n, bits)
      }
    }

    // candidate constants: full values + split tokens, by row frequency
    val freq = mutable.HashMap.empty[String, Int]
    for (d <- 0 until m; s <- ds(d) +: tokensOf(ds(d))) freq(s) = freq.getOrElse(s, 0) + dict.counts(d)
    val consts = freq.toVector.sortBy { case (s, c) => (-c, s) }.take(MaxConstantsPerColumn).map(_._1)

    for (s <- consts) {
      add(s"equals(${col.name},$s)",     ds(_) == s)
      add(s"contains(${col.name},$s)",   ds(_).contains(s))
      add(s"startsWith(${col.name},$s)", ds(_).startsWith(s))
      add(s"endsWith(${col.name},$s)",   ds(_).endsWith(s))
    }
    val topLens = (0 until m).groupMapReduce(ds(_).length)(dict.counts(_))(_ + _)
      .toVector.sortBy { case (l, c) => (-c, l) }.take(5).map(_._1)
    for (l <- topLens) add(s"length(${col.name},$l)", ds(_).length == l)

    val numeric = Array.tabulate(m)(d => Strings.isNumeric(ds(d)))
    add(s"hasDigits(${col.name})", ds(_).exists(_.isDigit))
    add(s"isNum(${col.name})",     numeric(_))
    add(s"isText(${col.name})",    d => ds(d).nonEmpty && !numeric(d))
    add(s"isError(${col.name})",   ds(_).startsWith("#"))
    add(s"isFormula(${col.name})", ds(_).startsWith("="))
    add(s"isLogical(${col.name})", d => ds(d).equalsIgnoreCase("true") || ds(d).equalsIgnoreCase("false"))
    add(s"isNA(${col.name})",      d => ds(d).isEmpty || ds(d).equalsIgnoreCase("na") || ds(d).equalsIgnoreCase("n/a") || ds(d) == "-")
  }
}
