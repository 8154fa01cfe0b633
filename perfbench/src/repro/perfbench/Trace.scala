package repro.perfbench

import scala.collection.mutable

/** Spans and counters recorded by the benchmark around calls into the
  * program's layers. A span is (name, call id, parent span, start, end);
  * spans of one call share its id. Counters are exact counts of work done,
  * taken at the same boundaries.
  *
  * A column replay first records into a scratch trace; [[merge]] commits it
  * only when the replay reproduced the pipeline's own result.
  */
final class Trace {
  import Trace.Span

  private val spans    = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.LinkedHashMap.empty[String, Double]
  private var open     = List.empty[Int]
  var callId: Int      = 0

  /** Time `body` as span `name`, nested under the innermost open span. */
  def span[A](name: String)(body: => A): A = {
    val idx = spans.length
    spans += Span(name, callId, open.headOption.getOrElse(-1), System.nanoTime(), 0L)
    open = idx :: open
    try body
    finally {
      open = open.tail
      spans(idx) = spans(idx).copy(end = System.nanoTime())
    }
  }

  def count(name: String, n: Double): Unit =
    counters.update(name, counters.getOrElse(name, 0.0) + n)

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  /** Total milliseconds of all spans called `name`. */
  def ms(name: String): Double =
    spans.iterator.filter(_.name == name).map(s => (s.end - s.start) / 1e6).sum

  /** Append a scratch trace's spans and counters to this one. */
  def merge(other: Trace): Unit = {
    val base = spans.length
    val parent = open.headOption.getOrElse(-1)
    other.spans.foreach { s =>
      spans += s.copy(parent = if (s.parent < 0) parent else s.parent + base)
    }
    other.counters.foreach { case (k, v) => count(k, v) }
  }

  /** One tab-separated line per span: call, name, parent, start and end (ns). */
  def spanLines: Iterator[String] =
    spans.iterator.zipWithIndex.map { case (s, i) =>
      s"${s.call}\t$i\t${s.name}\t${s.parent}\t${s.start}\t${s.end}"
    }
}

object Trace {
  final case class Span(name: String, call: Int, parent: Int, start: Long, end: Long)
}

/** Order statistics over timing samples. */
object Stats {
  /** Linear-interpolated quantile `q` in [0, 1] of `xs`. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Least-squares slope of log(y) against log(x). */
  def logLogSlope(points: Seq[(Double, Double)]): Double = {
    val pts = points.filter { case (x, y) => x > 0 && y > 0 }.map { case (x, y) => (math.log(x), math.log(y)) }
    if (pts.length < 2) return 0.0
    val mx = pts.map(_._1).sum / pts.length
    val my = pts.map(_._2).sum / pts.length
    val sxx = pts.map { case (x, _) => (x - mx) * (x - mx) }.sum
    val sxy = pts.map { case (x, y) => (x - mx) * (y - my) }.sum
    if (sxx == 0) 0.0 else sxy / sxx
  }
}
