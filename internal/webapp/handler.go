package webapp

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ajaxcrawl/internal/dom"
)

// Handler returns the site's HTTP interface:
//
//	GET /                 – index page linking the first videos
//	GET /watch?v=ID       – a video's watch page (HTML + JavaScript)
//	GET /comments?v=&p=   – AJAX fragment: comment page p (1-based)
func (s *Site) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/watch", s.handleWatch)
	mux.HandleFunc("/comments", s.handleComments)
	if s.cfg.WithSearchBox {
		mux.HandleFunc("/suggest", s.handleSuggest)
	}
	if s.cfg.WithLikeButton {
		mux.HandleFunc("/like", s.handleLike)
	}
	if s.cfg.AdvertiseStates > 0 {
		mux.HandleFunc("/robots-ajax.txt", s.handleAjaxRobots)
	}
	return mux
}

// handleAjaxRobots serves the AJAX-granularity hint file (thesis §4.3:
// sites advertising "the possible granularity of search on their pages").
func (s *Site) handleAjaxRobots(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "# AJAX crawl granularity hints\n")
	fmt.Fprintf(w, "ajax-states /watch %d\n", s.cfg.AdvertiseStates)
	fmt.Fprintf(w, "ajax-states / 1\n")
}

func (s *Site) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString("<html><head><title>SimTube</title></head><body><h1>SimTube</h1><ul>")
	n := min(s.NumVideos(), 25)
	for i := 0; i < n; i++ {
		v := s.Video(i)
		fmt.Fprintf(&b, `<li><a href="%s">%s</a></li>`, WatchURL(v.ID), dom.EscapeText(v.Title))
	}
	b.WriteString("</ul></body></html>")
	fmt.Fprint(w, b.String())
}

func (s *Site) handleWatch(w http.ResponseWriter, r *http.Request) {
	v := s.LookupVideo(r.URL.Query().Get("v"))
	if v == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, s.RenderWatchPage(v))
}

func (s *Site) handleComments(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	v := s.LookupVideo(q.Get("v"))
	if v == nil {
		http.NotFound(w, r)
		return
	}
	p, err := strconv.Atoi(q.Get("p"))
	if err != nil || p < 1 || p > len(v.Pages) {
		http.Error(w, "bad page", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, s.RenderCommentFragment(v, p))
}

// watchPageScript is the client-side code of every watch page. It
// mirrors the YouTube code excerpt in thesis §4.4.1: all comment-page
// events funnel into getUrlXMLResponseAndFillDiv, whose inner getUrl
// opens the XMLHttpRequest — the page's single hot node.
const watchPageScript = `
var trackCount = 0;
function showLoading(div_id) {
	var el = document.getElementById(div_id);
	if (el) { el.style.cursor = "wait"; }
}
function getXmlHttpRequest() { return new XMLHttpRequest(); }
function getUrl(url, async) {
	var xmlHttpReq = getXmlHttpRequest();
	xmlHttpReq.open("GET", url, async);
	xmlHttpReq.send(null);
	return xmlHttpReq.responseText;
}
function getUrlXMLResponseAndFillDiv(url, div_id) {
	var resp = getUrl(url, false);
	var div = document.getElementById(div_id);
	div.innerHTML = resp;
	div.style.cursor = "auto";
}
function urchinTracker(page) {
	trackCount = trackCount + 1;
	decorate();
	return trackCount;
}
function decorate() {
	var ts = document.getElementById('decor_timestamp');
	if (ts) {
		ts.innerText = 'tick-' + ((trackCount * 13) % 97);
		document.getElementById('decor_views').innerText = '.views-' + (1000 + (trackCount * 7919) % 4001);
		document.getElementById('decor_ad').innerText = '.ad-' + ((trackCount * 31) % 11);
	}
}
function loadCommentPage(vid, p) {
	showLoading('recent_comments');
	getUrlXMLResponseAndFillDiv('/comments?v=' + vid + '&action_get_comments=1&p=' + p, 'recent_comments');
	urchinTracker('/watch?v=' + vid);
}
function initPage() { urchinTracker('init'); }
function likeVideo(vid) {
	var cur = parseInt(document.getElementById('likecount').innerText);
	getUrlXMLResponseAndFillDiv('/like?v=' + vid + '&n=' + (cur + 1), 'likecount');
}
function suggest(prefix) {
	if (prefix == "") { return; }
	getUrlXMLResponseAndFillDiv('/suggest?q=' + encodeURIComponent(prefix), 'suggestions');
}
`

// RenderWatchPage renders the full HTML document for a video. The first
// comment page is inlined (it is what traditional, JavaScript-disabled
// crawling sees); further pages are reachable only through AJAX events.
func (s *Site) RenderWatchPage(v *Video) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>")
	b.WriteString(dom.EscapeText(v.Title))
	b.WriteString(" - SimTube</title><script type=\"text/javascript\">")
	b.WriteString(watchPageScript)
	b.WriteString("</script></head>\n")
	b.WriteString(`<body onload="initPage()">` + "\n")
	fmt.Fprintf(&b, `<h1 id="video-title">%s</h1>`+"\n", dom.EscapeText(v.Title))
	b.WriteString(`<div id="player">[flash video player]</div>` + "\n")
	if s.cfg.NoisyDecor {
		// The three spans are adjacent on purpose: their texts
		// concatenate into one visible token, so the mutating chrome
		// stays a near-duplicate (a few shingles) of the page it
		// decorates while still changing the exact content hash on
		// every tracked event.
		b.WriteString(`<div id="decor">chrome <span id="decor_timestamp">tick-0</span><span id="decor_views">.views-1000</span><span id="decor_ad">.ad-0</span></div>` + "\n")
	}
	if s.cfg.WithSearchBox {
		b.WriteString(`<div id="searchbox"><input id="search" type="text" onkeyup="suggest(this.value)"><div id="suggestions"></div></div>` + "\n")
	}
	if s.cfg.WithLikeButton {
		fmt.Fprintf(&b, `<div id="likebox"><span class="nav" id="likeBtn" onclick="likeVideo('%s')">like</span> <span id="likecount">0</span> likes</div>`+"\n", v.ID)
	}
	b.WriteString(`<div id="related"><h2>Related Videos</h2><ul>` + "\n")
	for _, rid := range v.Related {
		rv := s.LookupVideo(rid)
		title := rid
		if rv != nil {
			title = rv.Title
		}
		fmt.Fprintf(&b, `<li><a href="%s">%s</a></li>`+"\n", WatchURL(rid), dom.EscapeText(title))
	}
	b.WriteString("</ul></div>\n")
	fmt.Fprintf(&b, `<div id="recent_comments">%s</div>`+"\n", s.RenderCommentFragment(v, 1))
	b.WriteString("</body></html>\n")
	return b.String()
}

// RenderCommentFragment renders comment page p (1-based) of a video —
// the exact bytes /comments serves and the watch page inlines for p = 1,
// so that navigating back to page 1 reproduces the initial state.
func (s *Site) RenderCommentFragment(v *Video, p int) string {
	var b strings.Builder
	total := len(v.Pages)
	fmt.Fprintf(&b, `<div class="comments-page" data-page="%d">`, p)
	fmt.Fprintf(&b, `<h3>Comments (page %d of %d)</h3>`, p, total)
	for _, c := range v.Pages[p-1] {
		fmt.Fprintf(&b, `<div class="comment"><span class="author">%s</span><p>%s</p></div>`,
			dom.EscapeText(c.Author), dom.EscapeText(c.Text))
	}
	b.WriteString(`<div class="pagination">`)
	if p > 1 {
		fmt.Fprintf(&b, `<span class="nav" id="prevPage" onclick="loadCommentPage('%s', %d)">prev</span> `, v.ID, p-1)
	}
	// Direct jumps to the neighbouring pages (YouTube offers the
	// immediately consecutive page numbers, thesis §7.1.1).
	lo, hi := max(p-3, 1), min(p+3, total)
	for q := lo; q <= hi; q++ {
		if q == p {
			fmt.Fprintf(&b, `<b class="cur">%d</b> `, q)
			continue
		}
		fmt.Fprintf(&b, `<span class="nav page" onclick="loadCommentPage('%s', %d)">%d</span> `, v.ID, q, q)
	}
	if p < total {
		fmt.Fprintf(&b, `<span class="nav" id="nextPage" onclick="loadCommentPage('%s', %d)">next</span>`, v.ID, p+1)
	}
	b.WriteString("</div></div>")
	return b.String()
}

// handleSuggest serves query completions for a prefix: the AJAX form
// backend of the optional search box.
func (s *Site) handleSuggest(w http.ResponseWriter, r *http.Request) {
	prefix := strings.ToLower(r.URL.Query().Get("q"))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString(`<ul class="suggestions">`)
	n := 0
	if prefix != "" {
		for _, q := range Queries() {
			if strings.HasPrefix(q, prefix) {
				fmt.Fprintf(&b, "<li>%s</li>", dom.EscapeText(q))
				n++
				if n >= 5 {
					break
				}
			}
		}
	}
	if n == 0 {
		b.WriteString("<li class=\"none\">no suggestions</li>")
	}
	b.WriteString("</ul>")
	fmt.Fprint(w, b.String())
}

// handleLike echoes the new like count — a stateless AJAX endpoint whose
// every invocation yields a slightly different application state.
func (s *Site) handleLike(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil || n < 0 {
		http.Error(w, "bad count", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "%d", n)
}
