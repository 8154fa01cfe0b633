package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.pattern.Masks
import scala.util.Random

/** Readable edit distances over UTF-16 code units: the row-by-row
  * Levenshtein DP, against which the bit-parallel `Strings.lev` is checked,
  * and the full-matrix Damerau-Levenshtein DP (optimal string alignment),
  * against which the cut-off `Strings.damerauWithin` is checked.
  */
object StringsReference {

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
}

/** Random strings for the edit-distance properties: ASCII, non-ASCII
  * letters, unpaired surrogate halves and mask code points, over alphabets
  * small enough that distances stay well below the lengths.
  */
object RandomStrings {

  val Alphabet: Vector[Char] =
    "abcAB01-. ".toVector ++ "éßΩЖ".toVector ++
      Vector('\u007f', '\u0080', '\uD83D', '\uDE00', '\uFFFF', Masks.charFor("name"), Masks.charFor("category"))

  /** Lengths 0–80, with 63, 64 and 65 drawn often. */
  def length(rng: Random): Int =
    if (rng.nextInt(4) == 0) 63 + rng.nextInt(3) else rng.nextInt(81)

  def string(rng: Random, len: Int): String = {
    val alpha = Alphabet.take(2 + rng.nextInt(Alphabet.length - 1))
    Vector.fill(len)(alpha(rng.nextInt(alpha.length))).mkString
  }

  /** `s` after `edits` random deletions, insertions, substitutions or
    * adjacent transpositions.
    */
  def mutate(rng: Random, s: String, edits: Int): String =
    (0 until edits).foldLeft(s) { (t, _) =>
      val c = Alphabet(rng.nextInt(Alphabet.length)).toString
      rng.nextInt(4) match {
        case _ if t.isEmpty => c
        case 0 => t.patch(rng.nextInt(t.length), "", 1)
        case 1 => t.patch(rng.nextInt(t.length + 1), c, 0)
        case 2 => t.patch(rng.nextInt(t.length), c, 1)
        case _ => val i = rng.nextInt(t.length); if (i + 1 < t.length) t.patch(i, s"${t(i + 1)}${t(i)}", 2) else t
      }
    }

  /** A string unrelated to `s`, or a few edits away from it. */
  def near(rng: Random, s: String): String =
    if (rng.nextInt(3) == 0) string(rng, length(rng)) else mutate(rng, s, rng.nextInt(6))
}

class StringsDifferentialSpec extends AnyFunSuite {
  import RandomStrings._

  test("lev equals the dynamic program on random strings of length 0 to 80") {
    val rng = new Random(71019L)
    val lens = Array.fill(2)(collection.mutable.Set.empty[Int])
    for (_ <- 0 until 20000) {
      val a = string(rng, length(rng))
      val b = near(rng, a)
      assert(Strings.lev(a, b) == StringsReference.lev(a, b), s"'$a' vs '$b'")
      lens(0) += a.length; lens(1) += b.length
    }
    for (ls <- lens; l <- Seq(0, 1, 63, 64, 65, 80)) assert(ls(l), s"length $l never drawn")
  }

  test("levFrom equals the dynamic program, whichever string is longer") {
    val rng = new Random(71020L)
    for (_ <- 0 until 3000) {
      val p    = string(rng, length(rng))
      val dist = Strings.levFrom(p)
      for (_ <- 0 until 4) {
        val b = near(rng, p)
        assert(dist(b) == StringsReference.lev(p, b), s"'$p' vs '$b'")
      }
    }
  }

  test("closestLev equals the minimum of the dynamic program over the values") {
    val rng = new Random(71021L)
    var exact = 0
    for (_ <- 0 until 5000) {
      val p = string(rng, length(rng))
      val pool = Vector.fill(1 + rng.nextInt(5))(near(rng, p)) :+ ""
      // repeats and empty strings, and now and then `p` itself
      val vs = Vector.fill(1 + rng.nextInt(10))(pool(rng.nextInt(pool.length))) ++
        (if (rng.nextInt(5) == 0) Vector(p) else Vector.empty)
      val want = vs.map(StringsReference.lev(p, _)).min
      assert(Strings.closestLev(p, vs) == want, s"'$p' in $vs")
      if (want == 0) exact += 1
    }
    assert(exact >= 500, s"exact=$exact")
  }

  test("damerauWithin is damerau capped at k + 1") {
    val rng = new Random(71022L)
    for (_ <- 0 until 20000) {
      val a = string(rng, rng.nextInt(25))
      val b = if (rng.nextInt(4) == 0) string(rng, rng.nextInt(25)) else mutate(rng, a, rng.nextInt(5))
      val k = rng.nextInt(5)
      assert(Strings.damerauWithin(a, b, k) == math.min(StringsReference.damerau(a, b), k + 1), s"'$a' vs '$b', k = $k")
    }
  }
}
